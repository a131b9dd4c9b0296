//! End-to-end metrics, computed the same way for every workload from the
//! run's per-request records.

use crate::check::Tally;
use crate::stats::{geomean, median, percentile};
use std::collections::HashMap;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("cold_ms_p50", "ms"),
    ("speedup_geomean", "x"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MiB"),
    ("sojourn_ms_p99", "ms"),
    ("slo_frac", "frac"),
    ("served_rps", "1/s"),
];

/// One request of the measured stream (in a closed loop, one cell at its
/// best pass: see [`best_of_passes`]).
#[derive(Clone, Debug)]
pub struct Record {
    /// Scheduled cold (as opposed to a hit of a warmed cell).
    pub cold: bool,
    /// Due time to reply; `None` when no reply came within the limit.
    pub sojourn_ns: Option<u64>,
    /// Service-side wall time the reply reports.
    pub engine_ns: u64,
    /// Answered correctly (see `check`).
    pub ok: bool,
}

/// Everything a run measured, besides its records.
pub struct RunFacts {
    /// Set-up time of each repetition, in seconds.
    pub setups_s: Vec<f64>,
    /// `speedup` of every distinct cell scheduled cold in the run.
    pub speedups: Vec<f64>,
    /// Service wall of cold requests outside the measured stream (the open
    /// loop's warm-up): they count toward `compile_s`.
    pub untimed_cold_ns: Vec<u64>,
    pub peak_rss_mb: f64,
    /// Time the measured stream took to serve, in seconds: the open loop's
    /// window start to last reply; a closed loop's round trips (one client
    /// serves one request per round trip).
    pub measured_s: f64,
    /// Per-request limit, used as the sojourn of an unanswered request.
    pub limit_ns: u64,
    /// A reply counts toward `slo_frac` when it is correct and arrives
    /// within this long of its due time.
    pub slo_ms: f64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A closed-loop run sends its fixed cell set once per pass, with trip
/// counts that change the VM's work but never the schedule. Contention
/// from elsewhere on the host only ever adds time: on a shared 2-core host
/// three runs of one seed of an earlier 42-cell `big_trip` took 3.15, 3.14
/// and 3.79 s a pass, but 2.51, 2.50 and 2.70 s summed over each cell's
/// fastest pass. So each cell counts once, at its fastest correct round
/// trip (with that trip's engine time), and as failed if any of its passes
/// failed. `trips` pairs each request's cell (see `gen::cell_key`) with its
/// record.
pub fn best_of_passes(trips: &[(String, Record)]) -> Vec<Record> {
    let mut cells: HashMap<&str, Vec<&Record>> = HashMap::new();
    for (cell, r) in trips {
        cells.entry(cell.as_str()).or_default().push(r);
    }
    cells
        .into_values()
        .map(|rs| {
            let ok = rs.iter().all(|r| r.ok);
            match rs.iter().filter(|r| r.ok).min_by_key(|r| r.sojourn_ns) {
                Some(&fastest) => Record { ok, ..fastest.clone() },
                None => Record { cold: true, sojourn_ns: None, engine_ns: 0, ok: false },
            }
        })
        .collect()
}

/// `(name, value, unit)` for every end-to-end metric.
pub fn metrics(
    records: &[Record],
    facts: &RunFacts,
    tally: &Tally,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let need = |what: &str, v: Option<f64>| v.ok_or_else(|| format!("no samples for {what}"));
    let compile_ns: u64 = records.iter().filter(|r| r.cold).map(|r| r.engine_ns).sum::<u64>()
        + facts.untimed_cold_ns.iter().sum::<u64>();
    let cold_ms: Vec<f64> =
        records.iter().filter(|r| r.cold && r.ok).map(|r| ms(r.engine_ns)).collect();
    let sojourn = |r: &Record| ms(r.sojourn_ns.unwrap_or(facts.limit_ns));
    let all: Vec<f64> = records.iter().map(sojourn).collect();
    let slo_ns = (facts.slo_ms * 1e6) as u64;
    let in_slo =
        records.iter().filter(|r| r.ok && r.sojourn_ns.is_some_and(|s| s <= slo_ns)).count();
    let answered = records.iter().filter(|r| r.sojourn_ns.is_some()).count();
    let values = [
        need("setup_s", median(&facts.setups_s))?,
        compile_ns as f64 / 1e9,
        need("cold_ms_p50", median(&cold_ms))?,
        need("speedup_geomean", geomean(&facts.speedups))?,
        tally.ok_frac(),
        facts.peak_rss_mb,
        need("sojourn_ms_p99", percentile(&all, 99.0))?,
        in_slo as f64 / records.len().max(1) as f64,
        answered as f64 / facts.measured_s,
    ];
    Ok(END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cold: bool, sojourn_ms: Option<u64>, ok: bool) -> Record {
        let ns = sojourn_ms.map(|m| m * 1_000_000);
        Record { cold, sojourn_ns: ns, engine_ns: ns.unwrap_or(0), ok }
    }

    fn facts() -> RunFacts {
        RunFacts {
            setups_s: vec![0.2, 0.1, 0.3],
            speedups: vec![2.0, 8.0],
            untimed_cold_ns: Vec::new(),
            peak_rss_mb: 12.0,
            measured_s: 2.0,
            limit_ns: 30_000_000_000,
            slo_ms: 100.0,
        }
    }

    #[test]
    fn every_metric_is_reported_once_in_order() {
        let records: Vec<Record> =
            (0..200).map(|i| rec(i % 10 == 0, Some(1 + i as u64), true)).collect();
        let mut tally = Tally::default();
        records.iter().for_each(|_| tally.record(None));
        let m = metrics(&records, &facts(), &tally).unwrap();
        let names: Vec<&str> = m.iter().map(|&(n, _, _)| n).collect();
        let expect: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expect);
        let get = |n: &str| m.iter().find(|&&(k, _, _)| k == n).unwrap().1;
        assert_eq!(get("setup_s"), 0.2);
        // Cold requests 0, 10, ..., 190 took 1, 11, ..., 191 ms.
        assert!((get("compile_s") - 1.92).abs() < 1e-12);
        assert!((get("speedup_geomean") - 4.0).abs() < 1e-12);
        assert_eq!(get("ok_frac"), 1.0);
        assert_eq!(get("slo_frac"), 100.0 / 200.0);
        assert_eq!(get("served_rps"), 100.0);
        assert_eq!(get("sojourn_ms_p99"), 198.0);
    }

    #[test]
    fn a_failed_or_unanswered_request_counts_against_the_run() {
        let mut records: Vec<Record> = (0..100).map(|i| rec(i < 10, Some(1), true)).collect();
        records[48] = rec(false, None, false);
        records[49] = rec(false, None, false);
        records[50] = rec(false, Some(1), false);
        let mut tally = Tally::default();
        records.iter().for_each(|r| tally.record((!r.ok).then(|| "injected".to_string())));
        let m = metrics(&records, &facts(), &tally).unwrap();
        let get = |n: &str| m.iter().find(|&&(k, _, _)| k == n).unwrap().1;
        assert_eq!(get("ok_frac"), 0.97);
        assert_eq!(get("slo_frac"), 0.97);
        assert_eq!(get("served_rps"), 98.0 / 2.0);
        // Unanswered requests sit at the limit, above every answer.
        assert_eq!(get("sojourn_ms_p99"), 30_000.0);
    }

    #[test]
    fn each_cell_counts_once_at_its_fastest_correct_pass() {
        let trips: Vec<(String, Record)> = [
            ("a", rec(true, Some(30), true)),
            ("b", rec(true, Some(5), true)),
            ("a", rec(true, Some(20), true)),
            ("b", rec(true, Some(2), false)),
            ("c", rec(true, None, false)),
            ("a", rec(true, Some(25), true)),
            ("b", rec(true, Some(7), true)),
            ("c", rec(true, None, false)),
        ]
        .into_iter()
        .map(|(c, r)| (c.to_string(), r))
        .collect();
        let mut best = best_of_passes(&trips);
        best.sort_by_key(|r| r.sojourn_ns);
        let seen: Vec<(Option<u64>, bool)> =
            best.iter().map(|r| (r.sojourn_ns.map(|ns| ns / 1_000_000), r.ok)).collect();
        // `b` failed once: its fastest correct pass stands, counted failed.
        assert_eq!(seen, [(None, false), (Some(5), false), (Some(20), true)]);
    }
}
