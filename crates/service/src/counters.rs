//! Counter surfaces of the service layer.
//!
//! Two namespaces on one shared [`Registry`]:
//!
//! * `/jobs{name#id}/threads/...` — one scope per job, mirroring the
//!   paper's per-thread counter names (cumulative task count, cumulative
//!   execution time) but fed from the job's [`TaskGroup`], so each
//!   tenant's work is metered in isolation;
//! * `/service/...` — service-wide lifecycle counts, instantaneous queue
//!   length and budget use, and log₂ histograms of admission latency and
//!   turnaround.

use grain_counters::derived::DerivedCounter;
use grain_counters::equations;
use grain_counters::sync::{AtomicU64, Ordering};
use grain_counters::{
    CounterValue, LogHistogram, RawCounter, Registry, RegistryError, ScopedRegistry, Unit,
};
use grain_runtime::TaskGroup;
use std::sync::Arc;

/// Per-job counters: a scoped `/jobs{name#id}` namespace of derived
/// counters reading the job's task group. Registered at submission,
/// retired when the last [`crate::JobHandle`] (and the service's own
/// reference) drops.
pub struct JobCounters {
    scope: ScopedRegistry,
    /// Retry count, shared with the job core; feeds `tasks/retried`.
    retried: Arc<AtomicU64>,
}

impl JobCounters {
    /// Register the job counter surface for `instance` (`name#id`),
    /// backed by `group`.
    pub(crate) fn register(
        registry: &Arc<Registry>,
        instance: &str,
        group: &Arc<TaskGroup>,
    ) -> Result<Self, RegistryError> {
        let scope = registry.scope("jobs", instance);
        let g = Arc::clone(group);
        scope.register(
            "threads/count/cumulative",
            DerivedCounter::new(Unit::Count, move || g.completed() as f64),
        )?;
        let g = Arc::clone(group);
        scope.register(
            "threads/count/spawned",
            DerivedCounter::new(Unit::Count, move || g.spawned() as f64),
        )?;
        let g = Arc::clone(group);
        scope.register(
            "threads/count/skipped",
            DerivedCounter::new(Unit::Count, move || g.skipped() as f64),
        )?;
        let g = Arc::clone(group);
        scope.register(
            "threads/count/in-flight",
            DerivedCounter::new(Unit::Count, move || g.in_flight() as f64),
        )?;
        let g = Arc::clone(group);
        scope.register(
            "threads/count/faulted",
            DerivedCounter::new(Unit::Count, move || g.faulted() as f64),
        )?;
        let retried = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&retried);
        scope.register(
            "tasks/retried",
            DerivedCounter::new(Unit::Count, move || r.load(Ordering::SeqCst) as f64),
        )?;
        let g = Arc::clone(group);
        scope.register(
            "threads/time/cumulative-exec",
            DerivedCounter::new(Unit::Nanoseconds, move || g.exec_ns() as f64),
        )?;
        let g = Arc::clone(group);
        scope.register(
            "threads/time/average",
            DerivedCounter::new(Unit::Nanoseconds, move || {
                equations::task_duration_ns(g.exec_ns(), g.completed())
            }),
        )?;
        Ok(Self { scope, retried })
    }

    /// The shared retry counter backing `tasks/retried`; the job core
    /// increments it on each re-admission.
    pub(crate) fn retried_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.retried)
    }

    /// Full registry paths of this job's counters.
    pub fn paths(&self) -> Vec<String> {
        self.scope.paths()
    }

    /// The `/jobs{name#id}` prefix.
    pub fn prefix(&self) -> String {
        self.scope.prefix()
    }

    /// Sample one of the job's counters by short name, e.g.
    /// `threads/count/cumulative`.
    pub fn query(&self, name: &str) -> Result<CounterValue, RegistryError> {
        self.scope.query(name)
    }
}

/// Service-wide counters under `/service/...`.
///
/// The raw lifecycle counts are public so the service can increment
/// them without a registry lookup; the histograms give admission-latency
/// and turnaround distributions in power-of-two nanosecond buckets
/// (query percentiles with [`LogHistogram::quantile_floor`]).
pub struct ServiceCounters {
    /// Jobs ever submitted (including rejected ones).
    pub submitted: Arc<RawCounter>,
    /// Jobs that passed admission control.
    pub admitted: Arc<RawCounter>,
    /// Jobs that finished as `Completed`.
    pub completed: Arc<RawCounter>,
    /// Jobs that finished as `Cancelled`.
    pub cancelled: Arc<RawCounter>,
    /// Jobs that finished as `TimedOut`.
    pub timed_out: Arc<RawCounter>,
    /// Jobs that finished as `Failed` (task fault, not retried further).
    pub failed: Arc<RawCounter>,
    /// Faulted attempts re-admitted under `RetryWithBackoff`.
    pub retried: Arc<RawCounter>,
    /// Jobs refused by admission control.
    pub rejected: Arc<RawCounter>,
    /// Queued jobs dropped by the overload shedder (disjoint from
    /// `rejected`: `submitted = admitted + rejected + shed + …`).
    pub shed: Arc<RawCounter>,
    /// Times the dispatcher thread woke: a timer tick, a new timer, or
    /// shutdown. Admission never needs it, so a service whose jobs carry
    /// no deadline and never queue leaves it near 0.
    pub dispatcher_wakes: Arc<RawCounter>,
    /// Submission-to-admission latency, log₂ ns buckets.
    pub admission_latency: Arc<LogHistogram>,
    /// Submission-to-finish turnaround of admitted jobs, log₂ ns buckets.
    pub turnaround: Arc<LogHistogram>,
}

impl ServiceCounters {
    /// Register the `/service` namespace on `registry`. `queue_len` and
    /// `budget_in_use` are sampled live for the instantaneous gauges.
    pub(crate) fn register(
        registry: &Registry,
        queue_len: impl Fn() -> f64 + Send + Sync + 'static,
        budget_in_use: impl Fn() -> f64 + Send + Sync + 'static,
    ) -> Result<Self, RegistryError> {
        let this = Self {
            submitted: Arc::new(RawCounter::new()),
            admitted: Arc::new(RawCounter::new()),
            completed: Arc::new(RawCounter::new()),
            cancelled: Arc::new(RawCounter::new()),
            timed_out: Arc::new(RawCounter::new()),
            failed: Arc::new(RawCounter::new()),
            retried: Arc::new(RawCounter::new()),
            rejected: Arc::new(RawCounter::new()),
            shed: Arc::new(RawCounter::new()),
            dispatcher_wakes: Arc::new(RawCounter::new()),
            admission_latency: Arc::new(LogHistogram::new()),
            turnaround: Arc::new(LogHistogram::new()),
        };
        let raws: [(&str, &Arc<RawCounter>); 10] = [
            ("jobs/submitted", &this.submitted),
            ("jobs/admitted", &this.admitted),
            ("jobs/completed", &this.completed),
            ("jobs/cancelled", &this.cancelled),
            ("jobs/timed-out", &this.timed_out),
            ("jobs/failed", &this.failed),
            ("jobs/retried", &this.retried),
            ("jobs/rejected", &this.rejected),
            ("jobs/shed", &this.shed),
            ("dispatcher/wakes", &this.dispatcher_wakes),
        ];
        for (name, raw) in raws {
            let raw = Arc::clone(raw);
            registry.register(
                &format!("/service/{name}"),
                DerivedCounter::new(Unit::Count, move || raw.get() as f64),
            )?;
        }
        registry.register(
            "/service/queue/length",
            DerivedCounter::new(Unit::Count, queue_len),
        )?;
        registry.register(
            "/service/tasks/budget-in-use",
            DerivedCounter::new(Unit::Count, budget_in_use),
        )?;
        let h = Arc::clone(&this.admission_latency);
        registry.register(
            "/service/time/admission-latency",
            DerivedCounter::new(Unit::Nanoseconds, move || h.mean()),
        )?;
        let h = Arc::clone(&this.turnaround);
        registry.register(
            "/service/time/turnaround",
            DerivedCounter::new(Unit::Nanoseconds, move || h.mean()),
        )?;
        Ok(this)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_counters_read_their_group() {
        let reg = Arc::new(Registry::new());
        let group = TaskGroup::new();
        let jc = JobCounters::register(&reg, "render#1", &group).unwrap();
        group.enter();
        group.enter();
        group.exit_completed();
        assert_eq!(jc.query("threads/count/spawned").unwrap().as_count(), 2);
        assert_eq!(jc.query("threads/count/cumulative").unwrap().as_count(), 1);
        assert_eq!(jc.query("threads/count/in-flight").unwrap().as_count(), 1);
        assert_eq!(
            reg.query("/jobs{render#1}/threads/count/cumulative")
                .unwrap()
                .as_count(),
            1
        );
        assert_eq!(jc.prefix(), "/jobs{render#1}");
        assert_eq!(jc.paths().len(), 8);
        group.exit_faulted(grain_runtime::TaskError::Panicked {
            message: "boom".into(),
        });
        assert_eq!(jc.query("threads/count/faulted").unwrap().as_count(), 1);
        jc.retried_handle().fetch_add(2, Ordering::SeqCst);
        assert_eq!(jc.query("tasks/retried").unwrap().as_count(), 2);
    }

    #[test]
    fn service_counters_register_and_sample() {
        let reg = Registry::new();
        let sc = ServiceCounters::register(&reg, || 3.0, || 17.0).unwrap();
        sc.submitted.add(5);
        sc.rejected.incr();
        assert_eq!(reg.query("/service/jobs/submitted").unwrap().as_count(), 5);
        assert_eq!(reg.query("/service/jobs/rejected").unwrap().as_count(), 1);
        assert_eq!(reg.query("/service/queue/length").unwrap().as_count(), 3);
        assert_eq!(
            reg.query("/service/tasks/budget-in-use")
                .unwrap()
                .as_count(),
            17
        );
        sc.admission_latency.record(1000);
        assert!(reg.query("/service/time/admission-latency").unwrap().value > 0.0);
    }
}
