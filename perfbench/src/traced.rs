//! The traced run's layer measurements.
//!
//! [`run_chain`] re-does the engine's work for one cold request by calling
//! each layer's public function directly, in the engine's order, timing
//! each call from the benchmark's side: kernel build, `prepare`,
//! `schedule_window`, the two `run_model` calls, `audit_schedule`.
//! `schedule_window` spans several layers (GRiP, hazards, bounds); its
//! split comes from the stage breakdown the program already records
//! (`grip_obs::collect`), and the pick-loop phases from
//! `PipelineReport::phases`. Every level reports the part its children do
//! not cover as an explicit residual.

use grip_core::{PhaseTimes, Resources, ScheduleStats};
use grip_ir::Graph;
use grip_json::Json;
use grip_pipeline::{prepare, schedule_window, PipelineOptions};
use grip_service::proto::{request_from_json, request_to_json, response_to_json};
use grip_service::{default_unwind, state_digest, CacheStatus, ScheduleRequest, ScheduleResponse};
use grip_vm::{EquivReport, Machine, ModelRunStats};
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// One request's layer times (ns) and deterministic outputs.
pub struct Chain {
    pub wall_ns: u64,
    pub build_ns: u64,
    pub prepare_ns: u64,
    pub schedule_window_ns: u64,
    pub grip_ns: u64,
    pub hazards_ns: u64,
    pub bounds_ns: u64,
    pub run_model_ns: u64,
    pub audit_ns: u64,
    pub phases: PhaseTimes,
    pub stats: ScheduleStats,
    pub window_ops: u64,
    pub steady_rows: u64,
    pub seq_cycles: u64,
    pub sched_cycles: u64,
    pub verified: bool,
    pub state_digest: u64,
    pub audit_diagnostics: u64,
    pub bounds: grip_bounds::BoundCertificate,
}

pub fn run_chain(req: &ScheduleRequest) -> Result<Chain, String> {
    let kernel = grip_kernels::kernels()
        .iter()
        .find(|k| k.name == req.kernel)
        .ok_or_else(|| format!("unknown kernel {}", req.kernel))?;
    let desc = req.machine.resolve()?;
    let unwind = req.unwind.unwrap_or_else(|| default_unwind(desc.width));
    let o = req.options;
    let t0 = Instant::now();
    let (g0, build_ns) = timed(|| (kernel.build)(req.n));
    let mut g = g0.clone();
    let (prep, prepare_ns) = timed(|| prepare(&mut g, unwind, o.fold_inductions));
    let window_ops = prep.window.rows.iter().map(|&n| g.node_op_count(n) as u64).sum();
    let opts = PipelineOptions {
        unwind,
        resources: Resources::machine(desc),
        fold_inductions: o.fold_inductions,
        gap_prevention: o.gap_prevention,
        dce: o.dce,
        try_roll: o.try_roll,
        // The audit is timed as its own call below.
        audit: false,
    };
    let ((rep, stages), schedule_window_ns) = timed(|| {
        grip_obs::collect(|| schedule_window(&mut g, prep.window.clone(), &prep.ddg, opts))
    });
    let model = |graph: &Graph| {
        let mut m = Machine::for_graph(graph);
        (kernel.init)(graph, &mut m, req.n);
        let run = m.run_model(graph, &desc);
        (run, m)
    };
    let ((seq, m0), seq_ns) = timed(|| model(&g0));
    let ((sched, m1), sched_ns) = timed(|| model(&g));
    let (audit, audit_ns) = timed(|| grip_audit::audit_schedule(&g, &prep.ddg, &desc));
    let verified = seq.is_ok() && sched.is_ok() && EquivReport::compare(&g0, &m0, &m1).is_equal();
    let cycles = |r: &Result<ModelRunStats, _>| r.as_ref().map_or(0, ModelRunStats::total_cycles);
    let digest = state_digest(&g, &m1);
    Ok(Chain {
        wall_ns: t0.elapsed().as_nanos() as u64,
        build_ns,
        prepare_ns,
        schedule_window_ns,
        grip_ns: stages.get("grip"),
        hazards_ns: stages.get("hazards"),
        bounds_ns: stages.get("bounds"),
        run_model_ns: seq_ns + sched_ns,
        audit_ns,
        phases: rep.phases,
        stats: rep.stats,
        window_ops,
        steady_rows: rep.steady.len() as u64,
        seq_cycles: cycles(&seq),
        sched_cycles: cycles(&sched),
        verified,
        state_digest: digest,
        audit_diagnostics: audit.diagnostics.len() as u64,
        bounds: rep.bounds,
    })
}

/// Why the directly-called layers disagree with the service's reply to
/// the same request, if they do: both must be the same deterministic
/// computation.
pub fn disagreement(c: &Chain, r: &ScheduleResponse) -> Option<String> {
    let same = c.steady_rows == r.schedule_rows as u64
        && c.seq_cycles == r.seq_cycles
        && c.sched_cycles == r.sched_cycles
        && c.verified == r.verified
        && c.state_digest == r.state_digest
        && c.stats == r.stats
        && Some(c.bounds) == r.bounds;
    (!same).then(|| {
        format!(
            "{} on {} n={}: traced layers disagree with the service reply",
            r.kernel, r.machine, r.n
        )
    })
}

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("core.grip_ms", "ms"),
    ("core.grip.cand_refresh_ms", "ms"),
    ("core.grip.legality_ms", "ms"),
    ("core.grip.commit_ms", "ms"),
    ("core.grip.dead_sweep_ms", "ms"),
    ("core.grip.other_ms", "ms"),
    ("core.grip_pct", "%"),
    ("core.picks", "count"),
    ("core.hops", "count"),
    ("core.hop_success_frac", "frac"),
    ("core.resource_blocks", "count"),
    ("core.latency_blocks", "count"),
    ("core.gap_rejections", "count"),
    ("core.bound_exit_frac", "frac"),
    ("core.hazards_ms", "ms"),
    ("core.hazards_pct", "%"),
    ("core.hazards.delay_rows", "count"),
    ("core.hazards.backfills", "count"),
    ("core.hazards.reclaimed_rows", "count"),
    ("core.hazards.backfill_frac", "frac"),
    ("core.hazards.us_per_delay_row", "us"),
    ("pipeline.prepare_ms", "ms"),
    ("pipeline.window_ops", "count"),
    ("pipeline.schedule_window_ms", "ms"),
    ("pipeline.schedule_other_ms", "ms"),
    ("pipeline.steady_rows", "count"),
    ("vm.run_model_ms", "ms"),
    ("vm.run_model_pct", "%"),
    ("vm.cycles", "count"),
    ("vm.ns_per_cycle", "ns"),
    ("audit.ms", "ms"),
    ("audit.diagnostics", "count"),
    ("bounds.ms", "ms"),
    ("bounds.at_bound_frac", "frac"),
    ("bounds.gap_pct_p50", "%"),
    ("kernels.build_ms", "ms"),
    ("service.engine_ms", "ms"),
    ("service.sched_hit_frac", "frac"),
    ("service.ddg_hit_frac", "frac"),
    ("service.evictions", "count"),
    ("service.max_cold_ms", "ms"),
    ("pool.queue_wait_ms_p50", "ms"),
    ("pool.queue_wait_ms_p99", "ms"),
    ("proto.parse_us", "us"),
    ("proto.serialize_us", "us"),
    ("proto.residual_ms_p50", "ms"),
    ("proto.residual_ms_p99", "ms"),
    ("bench.request_wall_ms", "ms"),
    ("bench.residual_ms", "ms"),
    ("bench.residual_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.gen_late_ms_p99", "ms"),
    ("bench.backlog_end", "count"),
];

/// Per-layer accumulator for one traced run.
#[derive(Default)]
pub struct Layers {
    chains: Vec<Chain>,
    /// Engine wall of the untraced service replies to the traced requests.
    untraced_engine_ns: u64,
    replies: u64,
    hits: u64,
    ddg_hits: u64,
    engine_ns: u64,
    max_cold_ns: u64,
    queue_waits_ms: Vec<f64>,
    residuals_ms: Vec<f64>,
    parse_ns: u64,
    serialize_ns: u64,
    pub evictions: u64,
    pub gen_late_ms_p99: f64,
    pub backlog_end: u64,
    pub passes: u64,
}

impl Layers {
    /// Record the chain for a cold request and the untraced service reply
    /// it is measured against.
    pub fn add_chain(&mut self, chain: Chain, untraced: &ScheduleResponse) {
        self.untraced_engine_ns += untraced.wall_ns;
        self.chains.push(chain);
    }

    /// Record one service reply, its client-side time from due to reply,
    /// and its pool queue wait from the flight recorder.
    pub fn add_reply(
        &mut self,
        req: &ScheduleRequest,
        resp: &ScheduleResponse,
        sojourn_ns: u64,
        queue_wait_ns: Option<u64>,
    ) {
        self.replies += 1;
        self.hits += u64::from(resp.cache == CacheStatus::Hit);
        self.ddg_hits += u64::from(resp.cache == CacheStatus::DdgHit);
        self.engine_ns += resp.wall_ns;
        if resp.cache != CacheStatus::Hit {
            self.max_cold_ns = self.max_cold_ns.max(resp.wall_ns);
        }
        if let Some(q) = queue_wait_ns {
            self.queue_waits_ms.push(q as f64 / 1e6);
            let rest = sojourn_ns as f64 - resp.wall_ns as f64 - q as f64;
            self.residuals_ms.push(rest / 1e6);
        }
        // The server's per-line protocol work, timed on the same payloads.
        let line = request_to_json(req).line();
        let (parsed, parse_ns) = timed(|| {
            Json::parse(&line).map_err(|e| e.to_string()).and_then(|j| request_from_json(&j))
        });
        debug_assert!(parsed.is_ok());
        let (_, serialize_ns) = timed(|| response_to_json(resp).line());
        self.parse_ns += parse_ns;
        self.serialize_ns += serialize_ns;
    }

    /// Every per-layer metric, per pass; fails when a level's children
    /// add up to more than their parent.
    pub fn metrics(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let per = self.passes.max(1) as f64;
        let ms = |ns: u64| ns as f64 / 1e6 / per;
        let count = |x: u64| x as f64 / per;
        let sum = |f: &dyn Fn(&Chain) -> u64| self.chains.iter().map(f).sum::<u64>();
        let frac = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        let n = self.chains.len() as u64;
        for c in &self.chains {
            let layers =
                c.build_ns + c.prepare_ns + c.schedule_window_ns + c.run_model_ns + c.audit_ns;
            if layers > c.wall_ns
                || c.grip_ns + c.hazards_ns + c.bounds_ns > c.schedule_window_ns
                || c.phases.total_ns() > c.grip_ns
            {
                return Err("traced decomposition: children exceed their parent".to_string());
            }
        }
        let wall = sum(&|c| c.wall_ns);
        let grip = sum(&|c| c.grip_ns);
        let hazards = sum(&|c| c.hazards_ns);
        let bounds = sum(&|c| c.bounds_ns);
        let sw = sum(&|c| c.schedule_window_ns);
        let run_model = sum(&|c| c.run_model_ns);
        let phase = |f: fn(&PhaseTimes) -> u64| sum(&|c| f(&c.phases));
        let phases = phase(PhaseTimes::total_ns);
        let stat = |f: fn(&ScheduleStats) -> u64| sum(&|c| f(&c.stats));
        let hops = stat(|s| s.hops);
        let blocked = stat(|s| s.resource_blocks + s.latency_blocks)
            + stat(|s| s.gap_rejections + s.speculation_vetoes);
        let delay_rows = stat(|s| s.hazard_delay_rows);
        let backfills = stat(|s| s.hazard_backfills);
        let vm_cycles = sum(&|c| c.seq_cycles + c.sched_cycles);
        let layers = sum(&|c| c.build_ns + c.prepare_ns + c.run_model_ns + c.audit_ns) + sw;
        let pct = |part: u64| 100.0 * frac(part, wall);
        let gaps: Vec<f64> = self.chains.iter().map(|c| c.bounds.gap_pct).collect();
        let values = [
            ms(grip),
            ms(phase(|p| p.cand_refresh_ns)),
            ms(phase(|p| p.legality_ns)),
            ms(phase(|p| p.commit_ns)),
            ms(phase(|p| p.dead_sweep_ns)),
            ms(grip - phases),
            pct(grip),
            count(stat(|s| s.picks)),
            count(hops),
            frac(hops, hops + blocked),
            count(stat(|s| s.resource_blocks)),
            count(stat(|s| s.latency_blocks)),
            count(stat(|s| s.gap_rejections)),
            frac(self.chains.iter().filter(|c| c.stats.bound_exits > 0).count() as u64, n),
            ms(hazards),
            pct(hazards),
            count(delay_rows),
            count(backfills),
            count(stat(|s| s.hazard_reclaimed_rows)),
            frac(backfills, backfills + delay_rows),
            if delay_rows == 0 { 0.0 } else { hazards as f64 / 1e3 / delay_rows as f64 },
            ms(sum(&|c| c.prepare_ns)),
            count(sum(&|c| c.window_ops)),
            ms(sw),
            ms(sw - grip - hazards - bounds),
            count(sum(&|c| c.steady_rows)),
            ms(run_model),
            pct(run_model),
            count(vm_cycles),
            if vm_cycles == 0 { 0.0 } else { run_model as f64 / vm_cycles as f64 },
            ms(sum(&|c| c.audit_ns)),
            count(sum(&|c| c.audit_diagnostics)),
            ms(bounds),
            frac(self.chains.iter().filter(|c| c.bounds.at_bound).count() as u64, n),
            crate::stats::median(&gaps).unwrap_or(0.0),
            ms(sum(&|c| c.build_ns)),
            ms(self.engine_ns),
            frac(self.hits, self.replies),
            frac(self.ddg_hits, self.replies),
            count(self.evictions),
            self.max_cold_ns as f64 / 1e6,
            crate::stats::median(&self.queue_waits_ms).unwrap_or(0.0),
            crate::stats::percentile(&self.queue_waits_ms, 99.0).unwrap_or(0.0),
            self.parse_ns as f64 / 1e3 / self.replies.max(1) as f64,
            self.serialize_ns as f64 / 1e3 / self.replies.max(1) as f64,
            crate::stats::median(&self.residuals_ms).unwrap_or(0.0),
            crate::stats::percentile(&self.residuals_ms, 99.0).unwrap_or(0.0),
            ms(wall),
            ms(wall - layers),
            pct(wall - layers),
            100.0 * (wall as f64 - self.untraced_engine_ns as f64)
                / self.untraced_engine_ns.max(1) as f64,
            self.gen_late_ms_p99,
            self.backlog_end as f64,
        ];
        Ok(PER_LAYER.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::good_reply;
    use grip_service::MachineSpec;

    #[test]
    fn the_chain_matches_the_service_and_its_levels_add_up() {
        let mut req = ScheduleRequest::new("LL12", 24, MachineSpec::Preset("clustered".into()));
        req.want_audit = true;
        req.want_bounds = true;
        let chain = run_chain(&req).unwrap();
        let resp = good_reply();
        assert_eq!(disagreement(&chain, &resp), None);
        let mut layers = Layers { passes: 1, ..Layers::default() };
        layers.add_reply(&req, &resp, resp.wall_ns + 1000, Some(10));
        layers.add_chain(chain, &resp);
        let m = layers.metrics().unwrap();
        let get = |n: &str| m.iter().find(|&&(k, _, _)| k == n).unwrap().1;
        let children = get("kernels.build_ms")
            + get("pipeline.prepare_ms")
            + get("pipeline.schedule_window_ms")
            + get("vm.run_model_ms")
            + get("audit.ms")
            + get("bench.residual_ms");
        assert!((children - get("bench.request_wall_ms")).abs() < 1e-6);
        let window = get("core.grip_ms")
            + get("core.hazards_ms")
            + get("bounds.ms")
            + get("pipeline.schedule_other_ms");
        assert!((window - get("pipeline.schedule_window_ms")).abs() < 1e-6);
        let phases: f64 = ["cand_refresh", "legality", "commit", "dead_sweep", "other"]
            .iter()
            .map(|p| get(&format!("core.grip.{p}_ms")))
            .sum();
        assert!((phases - get("core.grip_ms")).abs() < 1e-6);
        assert!(get("bench.residual_ms") >= 0.0);
    }

    #[test]
    fn a_disagreeing_reply_is_reported() {
        let mut req = ScheduleRequest::new("LL12", 24, MachineSpec::Preset("clustered".into()));
        req.want_bounds = true;
        let chain = run_chain(&req).unwrap();
        let mut resp = good_reply();
        resp.sched_cycles += 1;
        assert!(disagreement(&chain, &resp).is_some());
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<&str> = PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .chain(crate::e2e::END_TO_END.iter().map(|&(n, _)| n))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for (_, unit) in PER_LAYER.iter().chain(crate::e2e::END_TO_END.iter()) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
