//! `grip-perfbench` — the repository benchmark: three seeded workloads,
//! end-to-end metrics from an untraced run, per-layer metrics from a
//! traced run. See `README.md` in this directory.
//!
//! ```text
//! grip-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                [--serve-bin PATH] [--state-dir DIR] [--git-rev REV] [--rustc VERSION]
//! ```
//!
//! The last stdout line is the result object; the line before it stamps
//! the host, the workload's description and the run's diagnostics.

#![forbid(unsafe_code)]

mod check;
mod closed;
mod e2e;
mod gen;
mod openloop;
mod stats;
mod traced;

use check::Tally;
use e2e::{Record, RunFacts};
use gen::Workload;
use grip_json::Json;
use grip_service::{ScheduleResponse, Service, ServiceConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use traced::Layers;

/// A closed-loop request with no reply within this long counts as failed.
const LIMIT: Duration = Duration::from_secs(30);
/// Set-up is repeated this many times per run and reported as the median.
const SETUP_REPEATS: usize = 31;
/// An open-loop run whose generator sent its p99 arrival later than this
/// past its due time is invalid: the offered load was not the one planned.
const GEN_LATE_BOUND_MS: f64 = 20.0;
/// `grip-serve` and the in-process service both run with this many shards
/// (the server's default on a 2-core host, pinned so hosts compare).
const SHARDS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
    state_dir: Option<PathBuf>,
    git_rev: String,
    rustc: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let req = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = req("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: req("--seed")?.parse().map_err(|_| "--seed must be an integer")?,
        seconds: req("--seconds")?.parse().map_err(|_| "--seconds must be a number")?,
        trace: match req("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
        serve_bin: flags.get("--serve-bin").map(PathBuf::from),
        state_dir: flags.get("--state-dir").map(PathBuf::from),
        git_rev: flags.get("--git-rev").unwrap_or(&"unknown").to_string(),
        rustc: flags.get("--rustc").unwrap_or(&"unknown").to_string(),
    };
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--serve-bin",
        "--state-dir",
        "--git-rev",
        "--rustc",
    ];
    if let Some(k) = flags.keys().find(|k| !known.contains(k)) {
        return Err(format!("unknown flag {k}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// What a run produced, whichever loop it ran.
struct Outcome {
    records: Vec<Record>,
    facts: RunFacts,
    layers: Layers,
    /// Deterministic outputs of the run's first pass (or of the open loop's
    /// hot set and cold cells), one line per reply.
    fingerprint: Vec<String>,
    diagnostics: Json,
}

fn fingerprint_line(r: &ScheduleResponse) -> String {
    format!(
        "{} {} n={} rows={} seq={} sched={} picks={} delay_rows={} digest={:016x} speedup={:016x}",
        r.kernel,
        r.machine,
        r.n,
        r.schedule_rows,
        r.seq_cycles,
        r.sched_cycles,
        r.stats.picks,
        r.stats.hazard_delay_rows,
        r.state_digest,
        r.speedup.to_bits()
    )
}

/// The in-process service's set-up, timed like `grip-serve`'s: launch a
/// process that builds the service and reports ready.
fn in_process_setup_s() -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            let mut child = Command::new(&exe)
                .arg("--setup-probe")
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("set-up probe: {e}"))?;
            let mut line = String::new();
            let read =
                BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
            let secs = t.elapsed().as_secs_f64();
            let status = child.wait().map_err(|e| e.to_string())?;
            match (read, status.success(), line.trim()) {
                (Ok(_), true, "ready") => Ok(secs),
                _ => Err("set-up probe did not report ready".to_string()),
            }
        })
        .collect()
}

fn setup_probe() -> ! {
    let service = Service::new(ServiceConfig { shards: SHARDS, ..Default::default() });
    let _ = grip_kernels::kernels();
    let _ = service.stats();
    println!("ready");
    // Exit without dropping the service: `ShardedPool`'s drop can lose
    // the shutdown wakeup and wait forever on a worker that has not yet
    // parked (see CHANGES.md).
    std::process::exit(0)
}

fn closed_loop(a: &Args, tally: &mut Tally) -> Result<Outcome, String> {
    let setups_s = in_process_setup_s()?;
    let mut trips = Vec::new();
    let mut speedups = Vec::new();
    let mut fingerprint = Vec::new();
    let mut layers = Layers::default();
    let mut disagreements = Vec::new();
    // An untraced run makes at least two passes, so that every cell has a
    // best pass (see `e2e::best_of_passes`). A traced pass also re-does
    // each cold request layer by layer, so it takes about twice as long;
    // its per-layer figures are sums per pass and need only one.
    let passes = if a.trace {
        gen::passes(a.workload, a.seconds / 2.0, 1)
    } else {
        gen::passes(a.workload, a.seconds, 2)
    };
    // Never dropped: a shard may still be busy with an unanswered request,
    // and `ShardedPool`'s drop can lose the shutdown wakeup and wait
    // forever (see CHANGES.md). The process exits once the result is out.
    let service = std::mem::ManuallyDrop::new(Service::new(ServiceConfig {
        shards: SHARDS,
        ..Default::default()
    }));
    let t0 = Instant::now();
    for (pass, reqs) in gen::cold_passes(a.workload, a.seed, passes).into_iter().enumerate() {
        let mut records = Vec::new();
        closed::run_pass(
            &reqs,
            |r| service.submit_async(r),
            LIMIT,
            &mut records,
            tally,
            |req, trip| {
                let Some(cold) = &trip.resp else { return };
                if pass == 0 {
                    fingerprint.push(fingerprint_line(cold));
                    if cold.ok {
                        speedups.push(cold.speedup);
                    }
                }
                if !a.trace {
                    return;
                }
                let wait = grip_obs::events::global()
                    .recent(1)
                    .into_iter()
                    .find(|f| f.trace_id == cold.trace_id)
                    .map(|f| f.queue_wait_ns);
                layers.add_reply(req, cold, trip.rtt_ns, wait);
                if cold.ok {
                    match traced::run_chain(req) {
                        Ok(chain) => {
                            disagreements.extend(traced::disagreement(&chain, cold));
                            layers.add_chain(chain, cold);
                        }
                        Err(e) => disagreements.push(e),
                    }
                }
            },
        );
        trips.extend(reqs.iter().map(gen::cell_key).zip(records));
    }
    if let Some(d) = disagreements.first() {
        return Err(d.clone());
    }
    layers.passes = passes as u64;
    let slo_ms = gen::closed_slo_ms(a.workload);
    let wall_s = t0.elapsed().as_secs_f64();
    let records = e2e::best_of_passes(&trips);
    let measured_s = records.iter().filter_map(|r| r.sojourn_ns).sum::<u64>() as f64 / 1e9;
    Ok(Outcome {
        records,
        facts: RunFacts {
            setups_s,
            speedups,
            untimed_cold_ns: Vec::new(),
            peak_rss_mb: stats::peak_rss_mb("self").ok_or("cannot read peak RSS")?,
            measured_s,
            limit_ns: LIMIT.as_nanos() as u64,
            slo_ms,
        },
        layers,
        fingerprint,
        diagnostics: Json::obj()
            .field("passes", passes)
            .field("requests", trips.len())
            .field("slo_ms", slo_ms)
            .field("wall_s", wall_s),
    })
}

fn open_loop(a: &Args, tally: &mut Tally) -> Result<Outcome, String> {
    let bin = a.serve_bin.as_deref().ok_or("serve_openloop needs --serve-bin")?;
    let mut setups_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let launched = openloop::Server::launch(bin)?;
        setups_s.push(t.elapsed().as_secs_f64());
        // Replacing the previous server stops it.
        server = Some(launched);
    }
    let mut server = server.expect("at least one set-up");
    let plan = gen::open_loop_plan(a.seed, a.seconds);
    open_loop_measure(a, &mut server, &plan, setups_s, tally)
}

fn open_loop_measure(
    a: &Args,
    server: &mut openloop::Server,
    plan: &gen::OpenLoopPlan,
    setups_s: Vec<f64>,
    tally: &mut Tally,
) -> Result<Outcome, String> {
    let run = openloop::run(server, plan, a.seconds, a.trace, tally)?;
    let gen_late_ms_p99 = stats::percentile(&run.gen_late_ms, 99.0).unwrap_or(0.0);
    if gen_late_ms_p99 > GEN_LATE_BOUND_MS {
        return Err(format!(
            "invalid run: the generator sent its p99 arrival {gen_late_ms_p99:.1} ms late \
             (bound {GEN_LATE_BOUND_MS} ms)"
        ));
    }
    let colds: Vec<(&gen::Arrival, &ScheduleResponse)> = plan
        .arrivals
        .iter()
        .zip(&run.replies)
        .filter_map(|(a, r)| r.as_ref().filter(|_| a.hot.is_none()).map(|r| (a, r)))
        .collect();
    let mut fingerprint: Vec<String> = run.warm.iter().map(fingerprint_line).collect();
    fingerprint.extend(colds.iter().map(|(_, r)| fingerprint_line(r)));
    let speedups =
        run.warm.iter().chain(colds.iter().map(|&(_, r)| r)).map(|r| r.speedup).collect();
    let max_cold_ms = colds.iter().map(|(_, r)| r.wall_ns as f64 / 1e6).fold(0.0, f64::max);

    let mut layers = Layers::default();
    layers.passes = 1;
    layers.gen_late_ms_p99 = gen_late_ms_p99;
    layers.backlog_end = run.backlog_end;
    if a.trace {
        if !run.drained {
            return Err("traced run: replies still outstanding, flight records unreadable".into());
        }
        // The probes during the window, then one for what came after the
        // last of them.
        let last = server.command(r#"{"cmd":"events","n":1024}"#)?;
        let mut waits: HashMap<String, u64> = HashMap::new();
        for events in run.probes.iter().chain([&last]) {
            let Some(Json::Arr(evs)) = events.get("events") else {
                return Err("events command gave no events".to_string());
            };
            waits.extend(evs.iter().filter_map(|e| {
                let trace = e.get("trace")?.as_str()?.to_string();
                Some((trace, e.get("queue_wait_ns")?.as_i64()? as u64))
            }));
        }
        let unrecorded = run.replies.iter().flatten().filter(|r| !waits.contains_key(&r.trace_id));
        if let Some(r) = unrecorded.clone().next() {
            return Err(format!(
                "traced run: {} replies missing from the flight records, first {} on {}",
                unrecorded.count(),
                r.kernel,
                r.machine
            ));
        }
        let stats = server.command(r#"{"cmd":"stats"}"#)?;
        let evicted = |k: &str| {
            stats.get("stats").and_then(|s| s.get(k)).and_then(Json::as_i64).unwrap_or(0) as u64
        };
        layers.evictions = evicted("sched_evictions") + evicted("ddg_evictions");
        for ((arrival, reply), record) in plan.arrivals.iter().zip(&run.replies).zip(&run.records) {
            if let (Some(r), Some(s)) = (reply, record.sojourn_ns) {
                layers.add_reply(&arrival.req, r, s, waits.get(&r.trace_id).copied());
            }
        }
        // The layers under the service, from the window's cold cells
        // re-done after the window closes.
        for (arrival, reply) in &colds {
            let chain = traced::run_chain(&arrival.req)?;
            if let Some(d) = traced::disagreement(&chain, reply) {
                return Err(d);
            }
            layers.add_chain(chain, reply);
        }
    }
    Ok(Outcome {
        records: run.records,
        facts: RunFacts {
            setups_s,
            speedups,
            untimed_cold_ns: run.warm.iter().map(|r| r.wall_ns).collect(),
            peak_rss_mb: server.peak_rss_mb().ok_or("cannot read grip-serve's peak RSS")?,
            measured_s: run.measured_s,
            limit_ns: openloop::LIMIT.as_nanos() as u64,
            slo_ms: gen::OPEN_SLO_MS,
        },
        layers,
        fingerprint,
        diagnostics: Json::obj()
            .field("rate_rps", gen::RATE_RPS)
            .field("arrivals", plan.arrivals.len())
            .field("slo_ms", gen::OPEN_SLO_MS)
            .field("probes", run.probes.len())
            .field("gen_late_ms_p99", gen_late_ms_p99)
            .field("backlog_end", run.backlog_end)
            .field("max_cold_ms", max_cold_ms)
            .field("measured_s", run.measured_s),
    })
}

/// Deterministic outputs must repeat exactly across runs of one seed:
/// the first run of a seed records them in `dir`, later runs compare.
/// `dir` belongs to the code under test (`run.py` keys it by the git rev
/// and the binaries' hash), so a change that alters schedules starts a
/// record of its own.
fn check_repeatable(dir: &Path, w: Workload, seed: u64, lines: &[String]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{seed}.txt", w.name()));
    let text = lines.join("\n") + "\n";
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev != text => {
            let diff = prev.lines().zip(text.lines()).find(|(p, t)| p != t);
            Err(format!(
                "deterministic outputs differ from an earlier run of seed {seed}: {diff:?}"
            ))
        }
        Ok(_) => Ok(()),
        Err(_) => {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, text)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> Result<Json, String> {
    let mut out = Json::obj();
    for &(name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        out = out.field(name, Json::obj().field("value", value).field("unit", unit));
    }
    Ok(out)
}

fn run(a: &Args) -> Result<(Json, Json), String> {
    let mut tally = Tally::default();
    let out = match a.workload {
        Workload::ServeOpenloop => open_loop(a, &mut tally)?,
        _ => closed_loop(a, &mut tally)?,
    };
    if let Some(dir) = &a.state_dir {
        check_repeatable(dir, a.workload, a.seed, &out.fingerprint)?;
    }
    let metrics = if a.trace {
        out.layers.metrics()?
    } else {
        e2e::metrics(&out.records, &out.facts, &tally)?
    };
    let host = Json::obj()
        .field("nproc", std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get))
        .field("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .field("git_rev", a.git_rev.as_str())
        .field("rustc", a.rustc.as_str());
    let report = Json::obj().field(
        "perfbench",
        Json::obj()
            .field("workload", a.workload.describe())
            .field("seed", a.seed)
            .field("seconds", a.seconds)
            .field("trace", a.trace)
            .field("host", host)
            .field("run", out.diagnostics)
            .field(
                "faults",
                Json::Arr(tally.faults.iter().map(|f| Json::from(f.as_str())).collect()),
            ),
    );
    let result = Json::obj()
        .field("correct", tally.failed == 0)
        .field("attempted", tally.attempted)
        .field("failed", tally.failed)
        .field("metrics", metrics_json(&metrics)?);
    Ok((report, result))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--setup-probe") {
        setup_probe();
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: grip-perfbench --workload {{long_latency|big_trip|serve_openloop}} \
             --seed N --seconds S --trace 0|1 [--serve-bin PATH] [--state-dir DIR]"
        );
        std::process::exit(2)
    });
    match run(&args) {
        Ok((report, result)) => {
            println!("{}", report.line());
            println!("{}", result.line());
            // The services of the closed loops are never dropped (see
            // `closed_loop`); exit without waiting on their workers.
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
