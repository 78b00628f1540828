//! A thread joining a job sleeps until the job's terminal state is
//! published: the settle notifies it. A wait that re-checked on a timer
//! would switch context once per tick, on any host.
//!
//! The count is the waiting thread's own, from
//! `/proc/thread-self/status`, so tests running beside it in this
//! binary do not move it.
#![allow(
    clippy::disallowed_methods,
    reason = "a test paces its scenario with sleeps; the rule is for product code"
)]

#[path = "../../runtime/tests/support/switches.rs"]
mod switches;

use grain_service::{JobService, JobSpec, JobState, ServiceConfig};
use std::time::Duration;
use switches::switches_during;

/// How long the one job runs: a 1 ms re-check would switch about 100
/// times meanwhile.
const TASK: Duration = Duration::from_millis(100);
/// One sleep, one wake-up, and room for a spurious one.
const BUDGET: u64 = 4;

#[test]
fn job_wait_sleeps_until_the_outcome_is_published() {
    let service = JobService::new(ServiceConfig::with_workers(1));
    let job = service.submit(JobSpec::new("sleeper", "t"), |_| std::thread::sleep(TASK));
    let mut state = None;
    let Some(switches) = switches_during(|| state = Some(job.wait().state)) else {
        return;
    };
    assert_eq!(state, Some(JobState::Completed));
    assert!(
        switches <= BUDGET,
        "{switches} context switches in JobHandle::wait over a {TASK:?} job (budget {BUDGET})"
    );
}
