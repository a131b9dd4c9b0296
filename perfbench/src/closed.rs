//! The closed-loop workloads: one client submits each request in-process
//! and waits for its reply before sending the next.

use crate::check::{cold_fault, Tally};
use crate::e2e::Record;
use grip_service::{ScheduleRequest, ScheduleResponse};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// One request's round trip: client time and the reply, if any came
/// within the limit.
pub struct Trip {
    pub rtt_ns: u64,
    pub resp: Option<ScheduleResponse>,
}

/// Run one pass: send each request, which must be scheduled cold, and wait
/// for its reply. Every request is recorded and checked; a request with no
/// reply within `limit` counts as failed and the pass moves on. `observe`
/// sees every round trip (the traced run hangs its layer timings on it).
pub fn run_pass(
    reqs: &[ScheduleRequest],
    mut submit: impl FnMut(ScheduleRequest) -> Receiver<ScheduleResponse>,
    limit: Duration,
    records: &mut Vec<Record>,
    tally: &mut Tally,
    mut observe: impl FnMut(&ScheduleRequest, &Trip),
) {
    for req in reqs {
        let t = Instant::now();
        let rx = submit(req.clone());
        let resp = rx.recv_timeout(limit).ok();
        let trip = Trip { rtt_ns: t.elapsed().as_nanos() as u64, resp };
        let fault = trip.resp.as_ref().map_or_else(
            || {
                Some(format!(
                    "{} on {} n={}: no reply within {limit:?}",
                    req.kernel,
                    req.machine.label(),
                    req.n
                ))
            },
            cold_fault,
        );
        records.push(Record {
            cold: true,
            sojourn_ns: trip.resp.as_ref().map(|_| trip.rtt_ns),
            engine_ns: trip.resp.as_ref().map_or(0, |r| r.wall_ns),
            ok: fault.is_none(),
        });
        tally.record(fault);
        observe(req, &trip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::good_reply;
    use grip_service::{CacheStatus, MachineSpec};
    use std::sync::mpsc;

    /// A stand-in service that answers from a script, never answering
    /// when the script says `None`.
    fn scripted(
        script: Vec<Option<ScheduleResponse>>,
    ) -> impl FnMut(ScheduleRequest) -> Receiver<ScheduleResponse> {
        let mut script = script.into_iter();
        let mut parked = Vec::new();
        move |_req| {
            let (tx, rx) = mpsc::channel();
            match script.next().flatten() {
                Some(r) => tx.send(r).unwrap(),
                None => parked.push(tx),
            }
            rx
        }
    }

    #[test]
    fn failed_unverified_and_silent_replies_count_and_the_pass_goes_on() {
        let good = good_reply();
        let mut hit = good.clone();
        hit.cache = CacheStatus::Hit;
        let mut unverified = good.clone();
        unverified.verified = false;
        let mut failed = good.clone();
        failed.ok = false;
        let req = ScheduleRequest::new("LL12", 24, MachineSpec::Preset("clustered".into()));
        let reqs = vec![req.clone(); 5];
        let script = vec![Some(good), Some(unverified), None, Some(failed), Some(hit)];
        let (mut records, mut tally) = (Vec::new(), Tally::default());
        let mut seen = 0;
        run_pass(
            &reqs,
            scripted(script),
            Duration::from_millis(20),
            &mut records,
            &mut tally,
            |_, _| seen += 1,
        );
        assert_eq!(seen, 5, "every request is observed; the silent one did not stall the pass");
        assert_eq!(tally.attempted, 5);
        // Unverified, silent, failed, and a cold request answered from cache.
        assert_eq!(tally.failed, 4);
        assert_eq!(records.len(), tally.attempted as usize);
        assert_eq!(records.iter().filter(|r| !r.ok).count(), 4);
        assert_eq!(records.iter().filter(|r| r.sojourn_ns.is_none()).count(), 1);
    }
}
