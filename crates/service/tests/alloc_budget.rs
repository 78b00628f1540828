//! Allocation budget of the per-job service paths, counted — not timed —
//! so it reads the same on any host: heap allocations per job counter
//! scope registered and retired, and per empty job from `submit` to its
//! settled outcome, by every thread of the process, under a counting
//! global allocator.
//!
//! The budgets are the counts of the current design plus a little; the
//! parts are listed at each assertion. A scope that parses its paths
//! again, or an admission step that allocates per pop, fails here before
//! it shows in a benchmark.

use grain_counters::sync::{AtomicU64, Ordering};
use grain_service::grain_counters::derived::DerivedCounter;
use grain_service::grain_counters::{Registry, Unit};
use grain_service::{JobService, JobSpec, JobState};
use std::sync::Arc;

#[path = "../../runtime/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

const JOBS: u64 = 20_000;

/// Allocations per job of `JOBS` jobs made by `run`, which returns once
/// all of them have finished.
fn allocs_per_job(run: impl FnOnce()) -> f64 {
    let before = allocations();
    run();
    (allocations() - before) as f64 / JOBS as f64
}

/// The eight counters a job's scope holds (`JobCounters`).
const JOB_COUNTERS: [&str; 8] = [
    "threads/count/cumulative",
    "threads/count/spawned",
    "threads/count/skipped",
    "threads/count/in-flight",
    "threads/count/faulted",
    "tasks/retried",
    "threads/time/cumulative-exec",
    "threads/time/average",
];

/// Register and retire `JOBS` job scopes of eight counters each.
fn job_scopes(registry: &Arc<Registry>, first: u64) {
    for id in first..first + JOBS {
        let cell = Arc::new(AtomicU64::new(id));
        let scope = registry.scope("jobs", &format!("render#{id}"));
        for name in JOB_COUNTERS {
            let cell = Arc::clone(&cell);
            let view =
                DerivedCounter::new(Unit::Count, move || cell.load(Ordering::Relaxed) as f64);
            scope.register(name, view).expect("unique instance");
        }
    }
}

fn empty_jobs(service: &JobService) {
    for id in 0..JOBS {
        let job = service.submit(JobSpec::new("empty", "t"), |_| {});
        assert_eq!(job.wait().state, JobState::Completed, "job {id}");
    }
}

/// One test, so nothing else in this process allocates while it counts.
#[test]
fn per_job_paths_stay_within_their_allocation_budget() {
    // The scope shares its registry with the 13 long-lived counters the
    // service registers at startup.
    let registry = Arc::new(Registry::new());
    for i in 0..13 {
        let view = DerivedCounter::new(Unit::Count, move || f64::from(i));
        registry
            .register(&format!("/service/startup/{i}"), view)
            .expect("fresh registry");
    }
    job_scopes(&registry, 0);
    // The instance, the job's cell and the prefix; per counter the
    // closure's box, the counter's `Arc`, its key and the scope's copy of
    // the key; the scope's list of keys growing to eight; one map node.
    // Nothing is parsed: a parse is three strings and a render one more.
    let per_scope = allocs_per_job(|| job_scopes(&registry, JOBS));
    assert_eq!(registry.len(), 13, "every scope retired its counters");
    assert!(
        per_scope <= 39.0,
        "{per_scope:.2} allocations per job scope"
    );

    let service = JobService::with_workers(1);
    empty_jobs(&service);
    // Everything one empty job costs the service, submit to outcome: the
    // spec's strings, the job core, group, handle and counter scope, the
    // root task, the settlement and fault hooks.
    let per_job = allocs_per_job(|| empty_jobs(&service));
    assert!(per_job <= 54.0, "{per_job:.2} allocations per empty job");
    eprintln!("allocations: {per_scope:.2} per job scope, {per_job:.2} per empty job");
}
