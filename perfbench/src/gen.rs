//! Seeded request generation. The program only ever sees the requests
//! built here, and every choice below is a pure function of the seed.
//!
//! Each workload keeps its *cost* nearly independent of the seed, so that
//! runs with different seeds measure the same amount of work: the seed
//! picks trip counts, orders and arrival times, while the set of (kernel,
//! machine) cells is fixed. Trip counts leave the schedule, and so its
//! cost, unchanged up to the 32-64 range used here; latencies do not (one
//! cycle more on LL7 at latency 8 more than doubles its picks), so they
//! are fixed per cell.

use grip_json::Json;
use grip_machine::LatencyTable;
use grip_service::proto::request_to_json;
use grip_service::workload::splitmix64;
use grip_service::{inline_machine, MachineSpec, ScheduleRequest};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LongLatency,
    BigTrip,
    ServeOpenloop,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::LongLatency, Workload::BigTrip, Workload::ServeOpenloop];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LongLatency => "long_latency",
            Workload::BigTrip => "big_trip",
            Workload::ServeOpenloop => "serve_openloop",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Loop shape, input properties, the layer it loads, and why it is
    /// in the benchmark; stamped into every run's report line.
    pub fn describe(self) -> Json {
        let (shape, inputs, layer, why) = match self {
            Workload::LongLatency => (
                "closed loop, 1 client, in-process Service::submit",
                "inline width-4 machines, LL2, LL4, LL5, LL8, LL11, LL12, LL13, fpu and mem \
                 latency 13-24 fixed per cell, n 32-64, every request cold",
                "core.hazards",
                "hazard resolution dominates and grows with latency",
            ),
            Workload::BigTrip => (
                "closed loop, 1 client, in-process Service::submit",
                "LL1-LL14, each on one of uniform2/4/8 in turn, n 20000-100000 (each \
                 cell drawn within 2000 above its own fixed base), every request cold",
                "vm",
                "verification cost scales with trip count; the only workload where the VM \
                 dominates",
            ),
            Workload::ServeOpenloop => (
                "open loop at 100 req/s, 1 client, 1 TCP connection, grip-serve --shards 2",
                "hot set 42 cells (uniform2/4/8 x LL1-LL14, n 32-64; 21 per shard on \
                 average against sched_cache_cap 512) warmed before timing, Zipf(1) \
                 popularity; plus 9 fixed cold heterogeneous cells (two about 3 s) in \
                 non-overlapping slots over the window",
                "service, pool, proto",
                "mixes cache hits with multi-second cold requests; shows head-of-line \
                 blocking of in-order replies",
            ),
        };
        Json::obj()
            .field("name", self.name())
            .field("loop", shape)
            .field("inputs", inputs)
            .field("loads", layer)
            .field("why", why)
    }
}

/// A seeded stream: SplitMix64 over the seed mixed with a stream label,
/// so each pass and each decision family draws independent numbers.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

fn request(kernel: &str, n: i64, machine: MachineSpec) -> ScheduleRequest {
    let mut r = ScheduleRequest::new(kernel, n, machine);
    // Both are computed on every cold run anyway; delivering them lets
    // every reply be checked audit-clean and bound-sound.
    r.want_audit = true;
    r.want_bounds = true;
    r
}

fn preset(name: &str) -> MachineSpec {
    MachineSpec::Preset(name.to_string())
}

/// `long_latency` cells: (kernel, width, fpu and mem latency). They are
/// the seven kernels on which the hazard pass did three quarters or more
/// of a traced cell's wall on an inline width-4 machine at latency 17-32
/// (LL1, LL3, LL6 and LL14 63-71%, LL9 and LL10 under half; LL7, even at
/// latency 8, took three times as long as any other cell). The latencies
/// span 13-24 and are assigned so that the kernels that are costly at any
/// latency get the low ones: a cell then takes about a quarter of a second
/// at nproc = 2 (the slowest about 0.3 s), so no single cell decides the
/// run's tail, and a pass is short enough to sample each cell fifteen
/// times a run (see `passes`); the hazard pass still does about 70% of
/// the traced wall.
const LATENCY_PLAN: [(&str, usize, u32); 7] = [
    ("LL8", 4, 13),
    ("LL13", 4, 14),
    ("LL5", 4, 17),
    ("LL4", 4, 20),
    ("LL2", 4, 21),
    ("LL11", 4, 23),
    ("LL12", 4, 24),
];

/// How many passes a closed-loop run makes: a fixed number per 20 s of
/// `seconds`, and at least `min`. Fixed by the arguments, not by how fast
/// a run goes, so every run of a workload does the same work. Each cell
/// counts at its fastest pass (see `e2e::best_of_passes`), and that
/// minimum settles as passes are added: at 20 s a run makes 15
/// `long_latency` passes (1.5-3 s each on a 2-core host) and 30 `big_trip`
/// passes (0.7-1.2 s each), so both run 20-45 s.
pub fn passes(w: Workload, seconds: f64, min: usize) -> usize {
    let per_20s = match w {
        Workload::LongLatency => 15.0,
        Workload::BigTrip => 30.0,
        Workload::ServeOpenloop => unreachable!("serve_openloop is an open loop"),
    };
    ((seconds / 20.0 * per_20s).round() as usize).max(min)
}

/// Latency objective of a closed-loop workload's cold requests, in ms,
/// about 1.6 times the workload's slowest cell at its best pass on a
/// 2-core host (about 0.3 s on `long_latency`, 0.15 s on `big_trip`), so
/// `slo_frac` reads 1 through the host's slow stretches and falls as
/// scheduling slows.
pub fn closed_slo_ms(w: Workload) -> f64 {
    match w {
        Workload::LongLatency => 500.0,
        Workload::BigTrip => 250.0,
        Workload::ServeOpenloop => unreachable!("serve_openloop is an open loop"),
    }
}

/// The cell a closed-loop request belongs to: the request without its id
/// and trip count, which the passes vary and which leave the schedule
/// alone.
pub fn cell_key(r: &ScheduleRequest) -> String {
    request_to_json(&ScheduleRequest { id: 0, n: 0, ..r.clone() }).line()
}

/// The passes of a closed-loop run: each covers the workload's fixed cell
/// set with seeded trip counts, latencies and order. No request repeats
/// an earlier one of the run (a clashing trip count is drawn again), so
/// one service can answer every pass and still schedule each first
/// request cold. Ids are `1..=len` within a pass.
pub fn cold_passes(w: Workload, seed: u64, passes: usize) -> Vec<Vec<ScheduleRequest>> {
    let mut seen = std::collections::HashSet::new();
    (0..passes).map(|p| cold_pass(w, seed, p, &mut seen)).collect()
}

fn cold_pass(
    w: Workload,
    seed: u64,
    pass: usize,
    seen: &mut std::collections::HashSet<String>,
) -> Vec<ScheduleRequest> {
    let mut rng = Rng::new(seed, &format!("{}/pass{pass}", w.name()));
    // (kernel, machine, trip-count range) per cell.
    let mut cells: Vec<(&str, MachineSpec, (i64, i64))> = Vec::new();
    match w {
        Workload::LongLatency => {
            for (kernel, width, latency) in LATENCY_PLAN {
                let (fpu, mem) = (latency, latency);
                let lat = LatencyTable { alu: 1, fpu, fpu_long: 2 * fpu, mem, branch: 1 };
                cells.push((
                    kernel,
                    MachineSpec::Inline(inline_machine(width, None, [None; 3], lat)),
                    (32, 64),
                ));
            }
        }
        Workload::BigTrip => {
            // One cell per kernel, the machines taken in turn, so that a
            // pass is short and each cell is sampled many times a run (see
            // `passes`). Each cell has a fixed base trip count, 20 000 to
            // 98 000 in steps of 6 000 dealt in a scrambled order (5 is
            // prime to 14), and the seed draws its trip count within 2 000
            // above the base: a cell's VM work then moves by under 10%
            // with the seed.
            let stratum = |j: i64| {
                let lo = 20_000 + (j * 5 % 14) * 6_000;
                (lo, lo + 1_999)
            };
            let machines = ["uniform2", "uniform4", "uniform8"];
            for (i, k) in grip_kernels::kernels().iter().enumerate() {
                cells.push((k.name, preset(machines[i % 3]), stratum(i as i64)));
            }
        }
        Workload::ServeOpenloop => unreachable!("serve_openloop is an open loop"),
    }
    let mut reqs: Vec<ScheduleRequest> = cells
        .into_iter()
        .map(|(kernel, machine, (lo, hi))| loop {
            let r = request(kernel, rng.range(lo, hi), machine.clone());
            if seen.insert(request_to_json(&r).line()) {
                break r;
            }
        })
        .collect();
    rng.shuffle(&mut reqs);
    for (i, r) in reqs.iter_mut().enumerate() {
        r.id = i as u64 + 1;
    }
    reqs
}

/// Offered load of `serve_openloop`, in requests per second.
pub const RATE_RPS: f64 = 100.0;

/// Latency objective of every `serve_openloop` request, in ms from its due
/// time.
pub const OPEN_SLO_MS: f64 = 100.0;

/// The cold cells `serve_openloop` mixes into its hits, one each per run,
/// with their rough service wall time in ms at nproc = 2: about 9 s in
/// all, two of them about 3 s each, so replies queue behind cold requests
/// for about a third of the window and the worst waits average over two
/// long requests. Heterogeneous machines, so none collides with the
/// uniform hot set.
pub const TRICKLE: [(&str, &str, u32); 9] = [
    ("LL7", "epic8", 3100),
    ("LL7", "mem_bound", 3200),
    ("LL10", "clustered", 420),
    ("LL13", "mem_bound", 390),
    ("LL14", "mem_bound", 370),
    ("LL8", "mem_bound", 340),
    ("LL1", "mem_bound", 320),
    ("LL4", "mem_bound", 230),
    ("LL5", "epic8", 230),
];

/// One open-loop arrival.
pub struct Arrival {
    /// When it is due, from the start of the measured window.
    pub due_ns: u64,
    pub req: ScheduleRequest,
    /// Index of the hot-set cell it repeats; `None` for a cold cell.
    pub hot: Option<usize>,
}

/// `serve_openloop`'s inputs: the hot set to warm before timing, and the
/// measured window's arrivals in due order (ids `1..`, after the warm-up's).
pub struct OpenLoopPlan {
    pub hot: Vec<ScheduleRequest>,
    pub arrivals: Vec<Arrival>,
}

pub fn open_loop_plan(seed: u64, seconds: f64) -> OpenLoopPlan {
    let mut rng = Rng::new(seed, "serve_openloop");
    let mut hot = Vec::new();
    for k in grip_kernels::kernels() {
        for p in ["uniform2", "uniform4", "uniform8"] {
            hot.push(request(k.name, rng.range(32, 64), preset(p)));
        }
    }
    for (i, r) in hot.iter_mut().enumerate() {
        r.id = i as u64 + 1;
    }
    // Zipf(1) popularity over a seeded ranking of the hot set.
    let mut rank: Vec<usize> = (0..hot.len()).collect();
    rng.shuffle(&mut rank);
    let weights: Vec<f64> = (0..hot.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let window_ns = seconds * 1e9;
    let count = (RATE_RPS * seconds).round() as usize;
    let mut arrivals: Vec<Arrival> = (0..count)
        .map(|_| {
            let due_ns = (rng.unit() * window_ns) as u64;
            let mut x = rng.unit() * total;
            let mut r = 0;
            while r + 1 < weights.len() && x >= weights[r] {
                x -= weights[r];
                r += 1;
            }
            Arrival { due_ns, req: hot[rank[r]].clone(), hot: Some(rank[r]) }
        })
        .collect();
    // The cold cells go in seeded order, each at the start of its own
    // slot of the first 85% of the window, slots sized in proportion to
    // the cells' wall times: about twice as long as the cell itself, so
    // cold requests do not overlap one another, and the last stretch
    // drains before the window closes.
    let mut trickle = TRICKLE;
    rng.shuffle(&mut trickle);
    let total_ms: u32 = trickle.iter().map(|&(_, _, ms)| ms).sum();
    let mut slot_start = 0.0;
    for (kernel, machine, ms) in trickle {
        let slot_ns = 0.85 * window_ns * f64::from(ms) / f64::from(total_ms);
        let due_ns = (slot_start + 0.1 * rng.unit() * slot_ns) as u64;
        let req = request(kernel, rng.range(32, 64), preset(machine));
        arrivals.push(Arrival { due_ns, req, hot: None });
        slot_start += slot_ns;
    }
    arrivals.sort_by_key(|a| a.due_ns);
    for (i, a) in arrivals.iter_mut().enumerate() {
        a.req.id = (hot.len() + i + 1) as u64;
    }
    OpenLoopPlan { hot, arrivals }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(reqs: &[ScheduleRequest]) -> Vec<String> {
        reqs.iter().map(|r| request_to_json(r).line()).collect()
    }

    fn plan_wire(p: &OpenLoopPlan) -> Vec<String> {
        let mut out = wire(&p.hot);
        out.extend(
            p.arrivals.iter().map(|a| format!("{} {}", a.due_ns, request_to_json(&a.req).line())),
        );
        out
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_change_with_it() {
        for w in [Workload::LongLatency, Workload::BigTrip] {
            let run = |seed| cold_passes(w, seed, 2).iter().map(|p| wire(p)).collect::<Vec<_>>();
            assert_eq!(run(7), run(7), "{w:?}");
            assert_ne!(run(7), run(8), "{w:?}");
            assert_ne!(run(7)[0], run(7)[1], "{w:?} passes");
            assert_eq!(cold_passes(w, 7, 1)[0].len(), cold_passes(w, 7, 3)[0].len());
            assert_eq!(
                wire(&cold_passes(w, 7, 1)[0]),
                run(7)[0],
                "{w:?}: pass 0 never depends on the pass count"
            );
        }
        assert_eq!(plan_wire(&open_loop_plan(7, 5.0)), plan_wire(&open_loop_plan(7, 5.0)));
        assert_ne!(plan_wire(&open_loop_plan(7, 5.0)), plan_wire(&open_loop_plan(8, 5.0)));
    }

    #[test]
    fn passes_cover_their_fixed_cell_sets_with_distinct_keys() {
        let key =
            |r: &ScheduleRequest| request_to_json(&ScheduleRequest { id: 0, ..r.clone() }).line();
        for (w, len) in [(Workload::LongLatency, 7), (Workload::BigTrip, 14)] {
            let passes = cold_passes(w, 3, 8);
            assert!(passes.iter().all(|p| p.len() == len), "{w:?}");
            let mut keys: Vec<String> = passes.iter().flatten().map(key).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), 8 * len, "{w:?}: no request of a run repeats another");
            let cells = |p: &Vec<ScheduleRequest>| {
                let mut c: Vec<String> = p.iter().map(cell_key).collect();
                c.sort();
                c.dedup();
                c
            };
            assert_eq!(cells(&passes[0]).len(), len, "{w:?}: one request per cell and pass");
            assert!(passes.iter().all(|p| cells(p) == cells(&passes[0])), "{w:?}: same cells");
        }
        for r in cold_passes(Workload::BigTrip, 3, 1).remove(0) {
            assert!((20_000..=100_000).contains(&r.n));
        }
    }

    #[test]
    fn open_loop_plan_is_mostly_hits_with_the_whole_trickle() {
        let p = open_loop_plan(11, 20.0);
        let colds: Vec<&Arrival> = p.arrivals.iter().filter(|a| a.hot.is_none()).collect();
        assert_eq!(colds.len(), TRICKLE.len());
        assert_eq!(p.arrivals.len(), 2000 + TRICKLE.len());
        assert!(p.arrivals.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(colds.iter().all(|a| a.due_ns < 17_000_000_000));
        // Every hot arrival repeats its warmed cell.
        for a in &p.arrivals {
            if let Some(h) = a.hot {
                let mut r = a.req.clone();
                r.id = p.hot[h].id;
                assert_eq!(request_to_json(&r).line(), request_to_json(&p.hot[h]).line());
            }
        }
    }
}
