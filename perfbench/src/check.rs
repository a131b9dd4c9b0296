//! What counts as a correct reply, and the run's failure tally.

use grip_service::{CacheStatus, ScheduleResponse};

/// The certificate bounds one traversal of the steady window, and a trip
/// count of at least `n - 5` (the deepest kernel induction offset) forces
/// `trip/unwind - 2` whole traversals, so no reply may report fewer VM
/// cycles than the scaled bound (the same rule `grip-client --check`
/// applies).
fn bound_sound(r: &ScheduleResponse) -> bool {
    let Some(b) = r.bounds else { return false };
    let trip = (r.n.max(5) - 5) as u64;
    let traversals = if r.unwind > 0 && trip >= r.unwind as u64 {
        (trip / r.unwind as u64).saturating_sub(2).max(1)
    } else {
        0
    };
    r.schedule_rows as u64 >= b.bound_cycles && r.sched_cycles >= traversals * b.bound_cycles
}

fn content_fault(r: &ScheduleResponse) -> Option<String> {
    let what = if !r.ok {
        format!("not ok: {}", r.error.as_deref().unwrap_or("no error text"))
    } else if !r.verified {
        "not VM-verified".to_string()
    } else if r.sched_stalls != 0 {
        format!("{} interlock stalls", r.sched_stalls)
    } else if r.template_violations != 0 {
        format!("{} template violations", r.template_violations)
    } else if !r.audit.as_ref().is_some_and(|a| a.diagnostics.is_empty()) {
        "audit report missing or dirty".to_string()
    } else if !bound_sound(r) {
        "bound certificate missing or unsound".to_string()
    } else {
        return None;
    };
    Some(format!("{} on {} n={}: {what}", r.kernel, r.machine, r.n))
}

/// Why a reply to a request that must be scheduled cold is wrong, if it is.
pub fn cold_fault(r: &ScheduleResponse) -> Option<String> {
    content_fault(r).or_else(|| {
        (r.cache == CacheStatus::Hit).then(|| {
            format!("{} on {} n={}: cold request answered from cache", r.kernel, r.machine, r.n)
        })
    })
}

/// Why a repeat of an answered request is wrong, if it is: it must come
/// from the schedule cache and be bit-identical to the cold reply.
pub fn hit_fault(r: &ScheduleResponse, cold: &ScheduleResponse) -> Option<String> {
    content_fault(r).or_else(|| {
        let what = if r.cache != CacheStatus::Hit {
            "repeat missed the schedule cache"
        } else if !r.bits_eq(cold) || r.bounds != cold.bounds || r.audit != cold.audit {
            "cache hit differs from its cold reply"
        } else {
            return None;
        };
        Some(format!("{} on {} n={}: {what}", r.kernel, r.machine, r.n))
    })
}

/// Requests attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub faults: Vec<String>,
}

impl Tally {
    /// Count one request; `fault` is `None` when it was answered correctly.
    pub fn record(&mut self, fault: Option<String>) {
        self.attempted += 1;
        if let Some(f) = fault {
            self.failed += 1;
            if self.faults.len() < 8 {
                eprintln!("[perfbench] FAILED: {f}");
                self.faults.push(f);
            }
        }
    }

    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use grip_service::{Engine, EngineConfig, JobMeta, MachineSpec, ScheduleRequest};

    pub(crate) fn good_reply() -> ScheduleResponse {
        let mut q = ScheduleRequest::new("LL12", 24, MachineSpec::Preset("clustered".into()));
        q.want_audit = true;
        q.want_bounds = true;
        Engine::new(EngineConfig::default()).process(0, &q, &JobMeta::immediate())
    }

    #[test]
    fn a_clean_cold_reply_passes() {
        assert_eq!(cold_fault(&good_reply()), None);
    }

    #[test]
    fn injected_faults_are_caught() {
        let good = good_reply();
        let faults: [fn(&mut ScheduleResponse); 8] = [
            |r| r.ok = false,
            |r| r.verified = false,
            |r| r.sched_stalls = 3,
            |r| r.template_violations = 1,
            |r| r.audit = None,
            |r| r.bounds = None,
            |r| r.schedule_rows = 0,
            |r| r.cache = CacheStatus::Hit,
        ];
        for (i, inject) in faults.iter().enumerate() {
            let mut r = good.clone();
            inject(&mut r);
            assert!(cold_fault(&r).is_some(), "fault {i} slipped through");
        }
        let mut hit = good.clone();
        hit.cache = CacheStatus::Hit;
        assert_eq!(hit_fault(&hit, &good), None);
        let mut differs = hit.clone();
        differs.state_digest ^= 1;
        assert!(hit_fault(&differs, &good).is_some());
        assert!(hit_fault(&good, &good).is_some(), "a repeat that misses the cache");
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(None);
        t.record(Some("x".into()));
        t.record(None);
        t.record(None);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert!((t.ok_frac() - 0.75).abs() < 1e-12);
    }
}
