//! Deterministic fault injection for chaos-testing the fleet.
//!
//! A [`FaultPlan`] is an explicit schedule mapping `(job index, attempt
//! number)` to a [`Fault`]. It is a **pure function of its inputs** —
//! no interior mutability, no wall clock, no global RNG — so a chaos
//! run replays bit-identically at any worker count, and the invariant
//! the chaos suite gates on ("every non-faulted job's result line is
//! bitwise identical to the fault-free run") is actually checkable.
//!
//! Faults model the failure classes a long-running fleet service
//! meets:
//!
//! * [`Fault::BuilderPanic`] — the operator build panics inside the
//!   single-flight cache reservation (exercises the
//!   [`Lru`](crate::cache::Lru) reservation-recovery path);
//! * [`Fault::SolverPanic`] — the power model panics at Picard
//!   iteration / transient step `k` (for an envelope job, the `k`-th
//!   iteration of its one streamed probe panel), mid-solve on a worker
//!   thread;
//! * [`Fault::Delay`] — the job stalls before solving (exercises
//!   deadlines and scheduler skew);
//! * [`Fault::EvictCaches`] — every operator cache is flushed before
//!   the job runs (exercises rebuild-under-traffic);
//! * [`Fault::TransientFault`] — a typed, retryable failure
//!   (exercises the retry/backoff machinery without touching solver
//!   state).
//!
//! [`FaultPlan::seeded`] scatters a deterministic mix of these over a
//! queue from one `u64` seed — what the `faults` bench and the CI
//! chaos job use; [`FaultPlan::inject`] pins individual faults for
//! targeted regression tests.

/// One injectable fault. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the operator build closure, under the cache's
    /// single-flight reservation.
    BuilderPanic,
    /// Panic in the power model's `iteration`-th batched power fill
    /// (0-based): Picard iteration for steady/map jobs, time step for
    /// transient jobs. An envelope job streams all its bisection probes
    /// through one batched panel, so its fill index counts Picard
    /// iterations of that panel across probes, not per probe.
    SolverPanic {
        /// 0-based fill index at which the panic fires.
        iteration: usize,
    },
    /// Sleep this long before running the job's solve.
    Delay {
        /// Stall duration, ms.
        ms: u64,
    },
    /// Flush every operator cache before running the job.
    EvictCaches,
    /// Fail immediately with the retryable
    /// [`JobError::Injected`](crate::JobError::Injected).
    TransientFault,
}

/// One scheduled fault: fires for `job` while `attempt <= attempts`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultEntry {
    job: usize,
    fault: Fault,
    /// Number of (1-based) attempts the fault keeps firing for. An
    /// `attempts` of 2 fails the first two tries and lets the third
    /// through — how retry-budget tests shape "transient" faults.
    attempts: usize,
}

/// A deterministic fault schedule (see the [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault firing on `job`'s first attempt only.
    pub fn inject(self, job: usize, fault: Fault) -> Self {
        self.inject_for(job, fault, 1)
    }

    /// Adds a fault firing on `job`'s first `attempts` attempts.
    pub fn inject_for(mut self, job: usize, fault: Fault, attempts: usize) -> Self {
        self.entries.push(FaultEntry {
            job,
            fault,
            attempts,
        });
        self
    }

    /// A deterministic scattered mix over a `jobs`-long queue: roughly
    /// one fault per eight jobs, cycling through every fault class,
    /// placed by a seeded xorshift walk. Same `(seed, jobs)` ⇒ same
    /// plan, bit for bit.
    pub fn seeded(seed: u64, jobs: usize) -> Self {
        let mut plan = FaultPlan::new();
        if jobs == 0 {
            return plan;
        }
        let mut state = seed | 1;
        let faults = jobs.div_ceil(8);
        for k in 0..faults {
            state = xorshift64(state);
            let job = (state % jobs as u64) as usize;
            state = xorshift64(state);
            let fault = match k % 5 {
                0 => Fault::TransientFault,
                1 => Fault::SolverPanic {
                    iteration: (state % 3) as usize,
                },
                2 => Fault::EvictCaches,
                3 => Fault::Delay { ms: state % 3 },
                _ => Fault::BuilderPanic,
            };
            plan = plan.inject(job, fault);
        }
        plan
    }

    /// The fault scheduled for `(job, attempt)` (`attempt` is
    /// 1-based), if any. Later [`Self::inject`] calls win on overlap.
    pub fn fault_for(&self, job: usize, attempt: usize) -> Option<&Fault> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.job == job && attempt <= e.attempts)
            .map(|e| &e.fault)
    }

    /// Number of distinct jobs the plan touches.
    pub fn faulted_jobs(&self) -> usize {
        let mut jobs: Vec<usize> = self.entries.iter().map(|e| e.job).collect();
        jobs.sort_unstable();
        jobs.dedup();
        jobs.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The workspace's standard xorshift64 step — also the retry
/// machinery's jitter source, so backoff schedules are reproducible
/// from `(seed, job, attempt)` alone.
pub(crate) fn xorshift64(mut state: u64) -> u64 {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.fault_for(0, 1), None);
        assert_eq!(plan.faulted_jobs(), 0);
    }

    #[test]
    fn inject_fires_on_the_first_attempt_only() {
        let plan = FaultPlan::new().inject(3, Fault::BuilderPanic);
        assert_eq!(plan.fault_for(3, 1), Some(&Fault::BuilderPanic));
        assert_eq!(plan.fault_for(3, 2), None);
        assert_eq!(plan.fault_for(2, 1), None);
    }

    #[test]
    fn inject_for_covers_a_budget_of_attempts() {
        let plan = FaultPlan::new().inject_for(0, Fault::TransientFault, 2);
        assert_eq!(plan.fault_for(0, 1), Some(&Fault::TransientFault));
        assert_eq!(plan.fault_for(0, 2), Some(&Fault::TransientFault));
        assert_eq!(plan.fault_for(0, 3), None);
    }

    #[test]
    fn later_injections_win_on_overlap() {
        let plan = FaultPlan::new()
            .inject(1, Fault::EvictCaches)
            .inject(1, Fault::Delay { ms: 5 });
        assert_eq!(plan.fault_for(1, 1), Some(&Fault::Delay { ms: 5 }));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::seeded(0xC0FFEE, 64);
        let b = FaultPlan::seeded(0xC0FFEE, 64);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.faulted_jobs() <= 64usize.div_ceil(8));
        for entry in &a.entries {
            assert!(entry.job < 64);
        }
        let c = FaultPlan::seeded(0xBEEF, 64);
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn seeded_plan_on_an_empty_queue_is_empty() {
        assert!(FaultPlan::seeded(7, 0).is_empty());
    }
}
