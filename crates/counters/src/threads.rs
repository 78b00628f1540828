//! The runtime's counter surface.
//!
//! One [`ThreadCounters`] instance per runtime holds every sharded raw
//! counter the scheduler and workers bump, and knows how to register the
//! full HPX-style counter tree — per-worker instances, `total` aggregates
//! and the derived Eq. 1–3 counters — into a
//! [`crate::Registry`]. Every counter here follows the one-writer-per-shard
//! contract of [`crate::raw`]: worker `w` writes shard `w`.

use crate::derived::{average_of, average_of_worker, ratio_of, ratio_of_worker, DerivedCounter};
use crate::equations::{self, Window};
use crate::histogram::ShardedHistogram;
use crate::path::CounterPath;
use crate::raw::Sharded;
use crate::registry::{Registry, RegistryError, ShardedTotal, ShardedWorker};
use crate::value::Unit;
use std::sync::Arc;

/// All raw event counters of one runtime, sharded per worker.
#[derive(Debug)]
pub struct ThreadCounters {
    /// Number of workers (shard count of every counter).
    workers: usize,
    /// Tasks completed (`/threads/count/cumulative`).
    pub tasks: Arc<Sharded>,
    /// Thread phases executed (`/threads/count/cumulative-phases`).
    pub phases: Arc<Sharded>,
    /// Σ t_exec in ns (`/threads/time/cumulative-exec`).
    pub exec_ns: Arc<Sharded>,
    /// Σ t_func in ns (`/threads/time/cumulative-func`).
    pub func_ns: Arc<Sharded>,
    /// Pending-queue probe count (`/threads/count/pending-accesses`).
    pub pending_accesses: Arc<Sharded>,
    /// Pending-queue probes that found nothing
    /// (`/threads/count/pending-misses`).
    pub pending_misses: Arc<Sharded>,
    /// Staged-queue probe count (`/threads/count/staged-accesses`).
    pub staged_accesses: Arc<Sharded>,
    /// Staged-queue probes that found nothing
    /// (`/threads/count/staged-misses`).
    pub staged_misses: Arc<Sharded>,
    /// Tasks taken from another worker's queues
    /// (`/threads/count/stolen`).
    pub stolen: Arc<Sharded>,
    /// Staged→pending conversions performed
    /// (`/threads/count/converted`).
    pub converted: Arc<Sharded>,
    /// Tasks spawned by code running on this worker; spawns from other
    /// threads land in the shared cell.
    pub spawned: Arc<Sharded>,
    /// Tasks whose phase panicked and were isolated
    /// (`/threads/count/faulted`).
    pub faulted: Arc<Sharded>,
    /// Distribution of per-phase execution times, ns (log₂ buckets), one
    /// shard per worker.
    pub exec_histogram: Arc<ShardedHistogram>,
}

impl ThreadCounters {
    /// Fresh counters for `workers` workers.
    pub fn new(workers: usize) -> Self {
        let mk = || Arc::new(Sharded::new(workers));
        Self {
            workers,
            tasks: mk(),
            phases: mk(),
            exec_ns: mk(),
            func_ns: mk(),
            pending_accesses: mk(),
            pending_misses: mk(),
            staged_accesses: mk(),
            staged_misses: mk(),
            stolen: mk(),
            converted: mk(),
            spawned: mk(),
            faulted: mk(),
            exec_histogram: Arc::new(ShardedHistogram::new(workers)),
        }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Everything recorded so far, as the [`Window`] since start: Eqs.
    /// 1–3 over the whole run, or, through [`Window::since`] an earlier
    /// reading, over any interval of interest. Every summed counter but
    /// `spawned` and `faulted` is a field.
    pub fn window(&self) -> Window {
        Window {
            func_ns: self.func_ns.sum(),
            exec_ns: self.exec_ns.sum(),
            tasks: self.tasks.sum(),
            phases: self.phases.sum(),
            pending_accesses: self.pending_accesses.sum(),
            pending_misses: self.pending_misses.sum(),
            staged_accesses: self.staged_accesses.sum(),
            staged_misses: self.staged_misses.sum(),
            stolen: self.stolen.sum(),
            converted: self.converted.sum(),
        }
    }

    /// Register the whole counter tree into `registry` under locality 0
    /// (the single-locality convention). See
    /// [`ThreadCounters::register_at`].
    pub fn register(&self, registry: &Registry) -> Result<(), RegistryError> {
        self.register_at(registry, 0)
    }

    /// Register the whole counter tree into `registry` under the given
    /// locality id.
    ///
    /// Registered paths (`<T>` = `{locality#L/total}`,
    /// `<w>` = `{locality#L/worker-thread#w}` for every worker):
    ///
    /// * `/threads<T>/count/cumulative`, `…/count/cumulative-phases`
    /// * `/threads<T>/time/cumulative-exec`, `…/time/cumulative-func`
    /// * `/threads<T>/time/average`, `…/time/average-overhead`
    /// * `/threads<T>/time/average-phase`, `…/time/average-phase-overhead`
    /// * `/threads<T>/idle-rate`
    /// * `/threads<T>/count/pending-accesses`, `…/pending-misses`,
    ///   `…/staged-accesses`, `…/staged-misses`, `…/stolen`, `…/converted`
    /// * per-worker: `idle-rate`, `time/average`, `count/cumulative`,
    ///   `count/pending-accesses`, `count/pending-misses`
    pub fn register_at(&self, registry: &Registry, locality: usize) -> Result<(), RegistryError> {
        let t = CounterPath::total_instance_for(locality);
        let total = |name: &str| format!("/threads{{{t}}}/{name}");

        let counts: &[(&str, &Arc<Sharded>)] = &[
            ("count/cumulative", &self.tasks),
            ("count/cumulative-phases", &self.phases),
            ("count/pending-accesses", &self.pending_accesses),
            ("count/pending-misses", &self.pending_misses),
            ("count/staged-accesses", &self.staged_accesses),
            ("count/staged-misses", &self.staged_misses),
            ("count/stolen", &self.stolen),
            ("count/converted", &self.converted),
            ("count/spawned", &self.spawned),
            ("count/faulted", &self.faulted),
        ];
        for (name, c) in counts {
            registry.register(&total(name), ShardedTotal::new(Arc::clone(c), Unit::Count))?;
        }
        for (name, c) in [
            ("time/cumulative-exec", &self.exec_ns),
            ("time/cumulative-func", &self.func_ns),
        ] {
            registry.register(
                &total(name),
                ShardedTotal::new(Arc::clone(c), Unit::Nanoseconds),
            )?;
        }

        // Derived Eq. 1–3 counters plus their per-phase variants.
        registry.register(
            &total("idle-rate"),
            ratio_of(Arc::clone(&self.exec_ns), Arc::clone(&self.func_ns)),
        )?;
        registry.register(
            &total("time/average"),
            average_of(
                Arc::clone(&self.exec_ns),
                Arc::clone(&self.tasks),
                Unit::Nanoseconds,
            ),
        )?;
        let exec = Arc::clone(&self.exec_ns);
        let func = Arc::clone(&self.func_ns);
        let tasks = Arc::clone(&self.tasks);
        registry.register(
            &total("time/average-overhead"),
            DerivedCounter::new(Unit::Nanoseconds, move || {
                equations::task_overhead_ns(exec.sum(), func.sum(), tasks.sum())
            }),
        )?;
        registry.register(
            &total("time/average-phase"),
            average_of(
                Arc::clone(&self.exec_ns),
                Arc::clone(&self.phases),
                Unit::Nanoseconds,
            ),
        )?;
        let exec = Arc::clone(&self.exec_ns);
        let func = Arc::clone(&self.func_ns);
        let phases = Arc::clone(&self.phases);
        registry.register(
            &total("time/average-phase-overhead"),
            DerivedCounter::new(Unit::Nanoseconds, move || {
                equations::task_overhead_ns(exec.sum(), func.sum(), phases.sum())
            }),
        )?;

        // The execution-time histogram: exposed as its sample count, and
        // hooked into reset_all through this registration.
        {
            struct HistView(Arc<ShardedHistogram>);
            impl crate::registry::Counter for HistView {
                fn value(&self) -> crate::value::CounterValue {
                    crate::value::CounterValue::new(self.0.count() as f64, Unit::Count)
                }
                fn reset(&self) {
                    self.0.reset();
                }
            }
            registry.register(
                &total("count/exec-samples"),
                HistView(Arc::clone(&self.exec_histogram)),
            )?;
        }

        // Per-worker instances.
        for w in 0..self.workers {
            let inst = CounterPath::worker_instance_for(locality, w);
            let path = |name: &str| format!("/threads{{{inst}}}/{name}");
            registry.register(
                &path("idle-rate"),
                ratio_of_worker(Arc::clone(&self.exec_ns), Arc::clone(&self.func_ns), w),
            )?;
            registry.register(
                &path("time/average"),
                average_of_worker(
                    Arc::clone(&self.exec_ns),
                    Arc::clone(&self.tasks),
                    w,
                    Unit::Nanoseconds,
                ),
            )?;
            registry.register(
                &path("count/cumulative"),
                ShardedWorker::new(Arc::clone(&self.tasks), w, Unit::Count),
            )?;
            registry.register(
                &path("count/pending-accesses"),
                ShardedWorker::new(Arc::clone(&self.pending_accesses), w, Unit::Count),
            )?;
            registry.register(
                &path("count/pending-misses"),
                ShardedWorker::new(Arc::clone(&self.pending_misses), w, Unit::Count),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_match_equations() {
        let c = ThreadCounters::new(2);
        // Two tasks on worker 0: exec 100+200, func 400 total.
        c.tasks.add(0, 2);
        c.exec_ns.add(0, 300);
        c.func_ns.add(0, 400);
        // One task on worker 1: exec 100, func 200.
        c.tasks.add(1, 1);
        c.exec_ns.add(1, 100);
        c.func_ns.add(1, 200);

        let w = c.window();
        // Eq. 1: (600-400)/600.
        assert!((w.idle_rate() - 200.0 / 600.0).abs() < 1e-12);
        // Eq. 2: 400/3.
        assert!((w.task_duration_ns() - 400.0 / 3.0).abs() < 1e-12);
        // Eq. 3: 200/3.
        assert!((w.task_overhead_ns() - 200.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn registration_exposes_paper_counters() {
        let c = ThreadCounters::new(2);
        let reg = Registry::new();
        c.register(&reg).unwrap();

        c.tasks.add(0, 4);
        c.exec_ns.add(0, 1_000);
        c.func_ns.add(0, 2_000);
        c.phases.add(0, 8);
        c.pending_accesses.add(1, 5);
        c.pending_misses.add(1, 3);

        let q = |p: &str| reg.query(p).unwrap().value;
        assert_eq!(q("/threads{locality#0/total}/count/cumulative"), 4.0);
        assert_eq!(q("/threads{locality#0/total}/idle-rate"), 0.5);
        assert_eq!(q("/threads{locality#0/total}/time/average"), 250.0);
        assert_eq!(q("/threads{locality#0/total}/time/average-overhead"), 250.0);
        assert_eq!(q("/threads{locality#0/total}/time/average-phase"), 125.0);
        assert_eq!(
            q("/threads{locality#0/total}/time/average-phase-overhead"),
            125.0
        );
        assert_eq!(q("/threads{locality#0/total}/count/pending-accesses"), 5.0);
        assert_eq!(
            q("/threads{locality#0/worker-thread#1}/count/pending-misses"),
            3.0
        );
        assert_eq!(q("/threads{locality#0/worker-thread#0}/idle-rate"), 0.5);
        assert_eq!(q("/threads{locality#0/worker-thread#1}/idle-rate"), 0.0);
    }

    #[test]
    fn registration_under_nonzero_locality() {
        let c = ThreadCounters::new(2);
        let reg = Registry::new();
        c.register_at(&reg, 5).unwrap();
        c.tasks.add(1, 3);
        let q = |p: &str| reg.query(p).unwrap().value;
        assert_eq!(q("/threads{locality#5/total}/count/cumulative"), 3.0);
        assert_eq!(
            q("/threads{locality#5/worker-thread#1}/count/cumulative"),
            3.0
        );
        // Nothing leaked under the locality-0 namespace.
        assert!(reg
            .query("/threads{locality#0/total}/count/cumulative")
            .is_err());
    }

    #[test]
    fn discovery_finds_the_counter_tree() {
        let c = ThreadCounters::new(1);
        let reg = Registry::new();
        c.register(&reg).unwrap();
        let counts = reg.discover("/threads/count/*").unwrap();
        assert!(counts.len() >= 9, "found {counts:?}");
        let all = reg.discover("/threads/*").unwrap();
        assert!(all.len() >= 15);
    }
}
