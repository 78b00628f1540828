//! The autotune subsystem: tenant map, service policy hook, counters,
//! shaped submission, and the worker-throttle actuator.
//!
//! One [`Autotune`] instance serves one [`JobService`]. Wiring order:
//!
//! ```text
//! let auto    = Autotune::new(AutotuneConfig::default());
//! let service = JobService::new(ServiceConfig {
//!     policy: Some(auto.policy_hook()),   // signal: completed jobs
//!     ..ServiceConfig::with_workers(4)
//! });
//! auto.attach(&service)?;                 // counters + core count
//! auto.submit_shaped(&service, "job", "tenant", &shape);
//! ```
//!
//! Every completed *shaped* job flows back through the policy hook; the
//! tenant's [`GrainController`] digests it and the tenant's next
//! [`Autotune::submit_shaped`] call expands at the adjusted grain.
//! Tenants that never submit shapes are untouched — the hook ignores
//! jobs without a [`grain_service::JobShape`].

#![deny(clippy::unwrap_used)]

use crate::controller::{AutotuneConfig, GrainController};
use crate::shape::ShapedWork;
use grain_adaptive::{throttled_workers, GrainSignal};
use grain_counters::derived::DerivedCounter;
use grain_counters::{Registry, RegistryError, Unit};
use grain_service::{JobHandle, JobOutcome, JobService, JobShape, JobSpec, JobState, PolicyHook};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Published state of one tenant's controller. The atomics mirror the
/// controller so counter reads never take the controller lock.
struct TenantEntry {
    controller: Mutex<GrainController>,
    grain: AtomicU64,
    converged: AtomicU64,
    probes: AtomicU64,
    adjustments: AtomicU64,
    jobs: AtomicU64,
}

impl TenantEntry {
    fn new(cfg: AutotuneConfig) -> Self {
        let controller = GrainController::new(cfg);
        let grain = controller.grain();
        let converged = u64::from(controller.converged());
        let probes = controller.probes();
        Self {
            controller: Mutex::new(controller),
            grain: AtomicU64::new(grain),
            converged: AtomicU64::new(converged),
            probes: AtomicU64::new(probes),
            adjustments: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
        }
    }

    fn publish(&self, c: &GrainController) {
        self.grain.store(c.grain(), Ordering::Relaxed);
        self.converged
            .store(u64::from(c.converged()), Ordering::Relaxed);
        self.probes.store(c.probes(), Ordering::Relaxed);
        self.adjustments.store(c.adjustments(), Ordering::Relaxed);
        self.jobs.store(c.jobs(), Ordering::Relaxed);
    }
}

/// Per-tenant online granularity control as a service policy. See the
/// [crate docs](crate) for the model and the module docs for wiring.
pub struct Autotune {
    cfg: AutotuneConfig,
    /// Cores the attached service schedules over (feeds per-job signal
    /// derivation); `cfg.cores` until [`Autotune::attach`] runs.
    cores: AtomicUsize,
    tenants: Mutex<BTreeMap<String, Arc<TenantEntry>>>,
    /// The attached service's registry, for lazy per-tenant counters.
    registry: Mutex<Option<Arc<Registry>>>,
    /// Most recent per-job signal, any tenant — the throttle actuator's
    /// view of the service.
    last_signal: Mutex<Option<GrainSignal>>,
}

impl Autotune {
    /// A detached subsystem; call [`Autotune::attach`] once the service
    /// exists.
    pub fn new(cfg: AutotuneConfig) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            cores: AtomicUsize::new(cfg.cores.max(1)),
            tenants: Mutex::new(BTreeMap::new()),
            registry: Mutex::new(None),
            last_signal: Mutex::new(None),
        })
    }

    /// The config this subsystem runs.
    pub fn config(&self) -> &AutotuneConfig {
        &self.cfg
    }

    /// Bind to a service: learn its core count and publish the
    /// aggregate counters `/autotune/grain` (mean tenant grain) and
    /// `/autotune/converged` (converged tenant fraction; 1.0 with no
    /// tenants) on its registry. Per-tenant counters appear lazily at
    /// `/autotune/tenants/{name}/{grain,converged,probes,adjustments}`
    /// as tenants first submit.
    pub fn attach(self: &Arc<Self>, service: &JobService) -> Result<(), RegistryError> {
        self.cores
            .store(service.runtime().num_workers().max(1), Ordering::Relaxed);
        let registry = Arc::clone(service.registry());
        let weak = Arc::downgrade(self);
        let mean_grain = weak_view(&weak, |auto| {
            let tenants = lock(&auto.tenants);
            if tenants.is_empty() {
                return auto.cfg.tuner.initial_nx as f64;
            }
            let sum: u64 = tenants
                .values()
                .map(|t| t.grain.load(Ordering::Relaxed))
                .sum();
            sum as f64 / tenants.len() as f64
        });
        registry.register(
            "/autotune/grain",
            DerivedCounter::new(Unit::Count, mean_grain),
        )?;
        let weak = Arc::downgrade(self);
        let converged = weak_view(&weak, |auto| {
            let tenants = lock(&auto.tenants);
            if tenants.is_empty() {
                return 1.0;
            }
            let done: u64 = tenants
                .values()
                .map(|t| t.converged.load(Ordering::Relaxed))
                .sum();
            done as f64 / tenants.len() as f64
        });
        registry.register(
            "/autotune/converged",
            DerivedCounter::new(Unit::Ratio, converged),
        )?;
        *lock(&self.registry) = Some(registry);
        Ok(())
    }

    /// The hook to install as [`grain_service::ServiceConfig::policy`].
    /// Feeds every *completed, shaped* job back into its tenant's
    /// controller; unshaped jobs and non-completed outcomes pass
    /// through untouched.
    pub fn policy_hook(self: &Arc<Self>) -> PolicyHook {
        let weak = Arc::downgrade(self);
        PolicyHook::new(move |spec, outcome| {
            let Some(auto) = weak.upgrade() else { return };
            if spec.shape.is_none() {
                return;
            }
            let Some(sig) = auto.signal_from_outcome(outcome) else {
                return;
            };
            auto.observe(&spec.tenant, &sig);
        })
    }

    /// Derive the controller signal from a measured job outcome.
    ///
    /// The service runtime exposes per-job exec time but not per-job
    /// func time, so the Eq.-1 idle rate is computed against the job's
    /// wall-clock core budget (`turnaround · cores`); with jobs run
    /// back-to-back this matches the windowed counter. The overhead
    /// fraction uses the same value as a proxy — for a single tenant
    /// driving the service, non-exec time *is* task overhead plus
    /// starvation, which are exactly the two regimes the tuner splits
    /// on `tasks_per_core`.
    fn signal_from_outcome(&self, outcome: &JobOutcome) -> Option<GrainSignal> {
        if outcome.state != JobState::Completed {
            return None;
        }
        let cores = self.cores.load(Ordering::Relaxed).max(1) as f64;
        let wall = outcome.turnaround.as_secs_f64().max(1e-9);
        let busy = outcome.exec_ns as f64 / 1e9;
        let idle = (1.0 - busy / (wall * cores)).clamp(0.0, 1.0);
        let tasks = outcome.tasks_completed.max(1) as f64;
        Some(GrainSignal {
            idle_rate: idle,
            overhead_frac: idle,
            pending_miss_rate: 0.0,
            tasks_per_core: tasks / cores,
        })
    }

    /// The grain `tenant`'s next job will be chunked at.
    pub fn grain_for(&self, tenant: &str) -> u64 {
        self.entry(tenant).grain.load(Ordering::Relaxed)
    }

    /// True once `tenant`'s controller sits frozen in its hysteresis
    /// band (or the subsystem is disabled).
    pub fn converged(&self, tenant: &str) -> bool {
        self.entry(tenant).converged.load(Ordering::Relaxed) != 0
    }

    /// Feed one completed-job signal into `tenant`'s controller and
    /// return the tenant's next grain. The policy hook calls this with
    /// measured signals; deterministic harnesses (the convergence
    /// storm, the cost-model benchmark) call it directly with modeled
    /// ones.
    pub fn observe(&self, tenant: &str, sig: &GrainSignal) -> u64 {
        let entry = self.entry(tenant);
        let next = {
            let mut c = lock(&entry.controller);
            let next = c.observe(sig);
            entry.publish(&c);
            next
        };
        *lock(&self.last_signal) = Some(*sig);
        next
    }

    /// Expand `shape` at the tenant's current (bound-guarded) grain and
    /// submit it. The job carries a [`JobShape`] so its completion
    /// flows back through the policy hook.
    pub fn submit_shaped(
        &self,
        service: &JobService,
        name: &str,
        tenant: &str,
        shape: &ShapedWork,
    ) -> JobHandle {
        let units = shape.units();
        let grain = {
            let entry = self.entry(tenant);
            let c = lock(&entry.controller);
            c.effective_grain(units)
        };
        let expanded = shape.expand(grain);
        let mut body = expanded.body;
        let spec = JobSpec::new(name, tenant)
            .estimated_tasks(expanded.tasks + 1)
            .shape(JobShape::new(units, grain));
        service.submit(spec, move |ctx| body(ctx))
    }

    /// The worker-pool actuator: given the pool state, what the most
    /// recent signal says the active-worker count should be (`active`
    /// until a first job has been observed). The same `tasks_per_core`
    /// that drives grain adaptation drives Porterfield-style throttling
    /// ([`throttled_workers`]); apply the answer with
    /// [`grain_runtime::Runtime::set_active_workers`].
    pub fn recommended_workers(&self, active: usize, max: usize) -> usize {
        let Some(sig) = *lock(&self.last_signal) else {
            return active;
        };
        // The signal's ratio is over the whole pool, so the task count
        // is too — rebuilt over `active` it would shrink with every
        // throttle step and ratchet the pool down to one worker.
        let tasks = (sig.tasks_per_core * max as f64).round() as usize;
        throttled_workers(tasks, max)
    }

    /// Tenant names seen so far (storm reports iterate this).
    pub fn tenants(&self) -> Vec<String> {
        lock(&self.tenants).keys().cloned().collect()
    }

    /// Probe phases `tenant`'s controller has opened.
    pub fn probes(&self, tenant: &str) -> u64 {
        self.entry(tenant).probes.load(Ordering::Relaxed)
    }

    /// Grain adjustments `tenant`'s controller has applied.
    pub fn adjustments(&self, tenant: &str) -> u64 {
        self.entry(tenant).adjustments.load(Ordering::Relaxed)
    }

    /// Jobs observed for `tenant`.
    pub fn jobs(&self, tenant: &str) -> u64 {
        self.entry(tenant).jobs.load(Ordering::Relaxed)
    }

    fn entry(&self, tenant: &str) -> Arc<TenantEntry> {
        let mut tenants = lock(&self.tenants);
        if let Some(e) = tenants.get(tenant) {
            return Arc::clone(e);
        }
        let entry = Arc::new(TenantEntry::new(self.cfg));
        tenants.insert(tenant.to_owned(), Arc::clone(&entry));
        drop(tenants);
        self.register_tenant_counters(tenant, &entry);
        entry
    }

    /// Publish `/autotune/tenants/{name}/...` views. Registration is
    /// best-effort: a tenant name the counter grammar rejects (or a
    /// collision after a registry reset) must not fail the submission
    /// path, so errors are swallowed — the controller still runs, it is
    /// just not observable by path.
    fn register_tenant_counters(&self, tenant: &str, entry: &Arc<TenantEntry>) {
        let Some(registry) = lock(&self.registry).clone() else {
            return;
        };
        type FieldGet = fn(&TenantEntry) -> &AtomicU64;
        let fields: [(&str, Unit, FieldGet); 4] = [
            ("grain", Unit::Count, |e| &e.grain),
            ("converged", Unit::Ratio, |e| &e.converged),
            ("probes", Unit::Count, |e| &e.probes),
            ("adjustments", Unit::Count, |e| &e.adjustments),
        ];
        for (name, unit, get) in fields {
            let e = Arc::clone(entry);
            let path = format!("/autotune/tenants/{tenant}/{name}");
            let _ = registry.register(
                &path,
                DerivedCounter::new(unit, move || get(&e).load(Ordering::Relaxed) as f64),
            );
        }
    }
}

impl std::fmt::Debug for Autotune {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Autotune")
            .field("cfg", &self.cfg)
            .field("tenants", &lock(&self.tenants).len())
            .finish()
    }
}

/// Mutex lock that survives a poisoned peer (counter views must not
/// panic inside registry queries).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A derived-counter closure over a weak subsystem handle: reads 0.0
/// once the subsystem is gone instead of keeping it alive.
fn weak_view(
    weak: &Weak<Autotune>,
    view: impl Fn(&Autotune) -> f64 + Send + Sync + 'static,
) -> impl Fn() -> f64 + Send + Sync + 'static {
    let weak = weak.clone();
    move || weak.upgrade().map_or(0.0, |auto| view(&auto))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_service::ServiceConfig;
    use grain_sim::storm::GraphFamily;

    fn shaped_service() -> (Arc<Autotune>, JobService) {
        let auto = Autotune::new(AutotuneConfig {
            cores: 2,
            ..AutotuneConfig::default()
        });
        let service = JobService::new(ServiceConfig {
            policy: Some(auto.policy_hook()),
            ..ServiceConfig::with_workers(2)
        });
        auto.attach(&service).expect("attach");
        (auto, service)
    }

    #[test]
    fn completed_shaped_jobs_feed_the_tenant_controller() {
        let (auto, service) = shaped_service();
        let shape = ShapedWork::ParallelFor {
            elements: 256,
            iters_per_element: 50,
            seed: 7,
        };
        for i in 0..3 {
            let job = auto.submit_shaped(&service, &format!("j{i}"), "ten-a", &shape);
            let outcome = job.wait();
            assert_eq!(outcome.state, JobState::Completed);
        }
        assert_eq!(auto.jobs("ten-a"), 3, "hook saw every completion");
        let reg = service.registry();
        assert!(reg.query("/autotune/tenants/ten-a/grain").is_ok());
        assert!(reg.query("/autotune/grain").is_ok());
        assert!(reg.query("/autotune/converged").is_ok());
    }

    #[test]
    fn unshaped_jobs_do_not_touch_controllers() {
        let (auto, service) = shaped_service();
        let job = service.submit(JobSpec::new("plain", "ten-b"), |ctx| {
            ctx.spawn(|_| {});
        });
        assert_eq!(job.wait().state, JobState::Completed);
        assert!(auto.tenants().is_empty(), "no shape, no tenant entry");
    }

    #[test]
    fn graph_shapes_round_trip_through_the_service() {
        let (auto, service) = shaped_service();
        let shape = ShapedWork::Graph {
            family: GraphFamily::Stencil,
            total_iters: 50_000,
            payload_bytes: 16,
            seed: 3,
            cov: grain_taskbench::Cov::Lognormal { cov_centi: 80 },
        };
        let outcome = auto.submit_shaped(&service, "g", "ten-c", &shape).wait();
        assert_eq!(outcome.state, JobState::Completed);
        assert!(outcome.tasks_completed > 1);
        assert_eq!(auto.jobs("ten-c"), 1);
    }

    #[test]
    fn modeled_observations_move_the_published_grain() {
        let auto = Autotune::new(AutotuneConfig::default());
        let g0 = auto.grain_for("t");
        // A starved regime (huge idle, almost no tasks per core) must
        // shrink the grain.
        let sig = GrainSignal {
            idle_rate: 0.9,
            overhead_frac: 0.1,
            pending_miss_rate: 0.0,
            tasks_per_core: 0.5,
        };
        let g1 = auto.observe("t", &sig);
        assert!(g1 < g0, "starvation shrinks the grain ({g0} -> {g1})");
        assert_eq!(auto.grain_for("t"), g1);
        assert!(auto.adjustments("t") >= 1);
    }

    #[test]
    fn throttle_actuator_parks_workers_when_tasks_cannot_feed_them() {
        let auto = Autotune::new(AutotuneConfig::default());
        assert_eq!(auto.recommended_workers(8, 8), 8, "no signal, no change");
        let sig = GrainSignal {
            idle_rate: 0.9,
            overhead_frac: 0.1,
            pending_miss_rate: 0.0,
            tasks_per_core: 0.25,
        };
        auto.observe("t", &sig);
        let rec = auto.recommended_workers(8, 8);
        assert_eq!(rec, 2, "two runnable tasks cannot feed eight workers");
        // Applying the answer must not change it: the same two tasks
        // still want two workers, not one.
        assert_eq!(auto.recommended_workers(rec, 8), 2, "throttle ratchets");
    }
}
