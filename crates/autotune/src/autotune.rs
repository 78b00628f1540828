//! The autotune subsystem: tenant map, service policy hook, counters
//! and shaped submission.
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

use crate::controller::{AutotuneConfig, GrainController};
use crate::shape::ShapedWork;
use grain_adaptive::GrainSignal;
use grain_counters::derived::DerivedCounter;
use grain_counters::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use grain_counters::{Registry, RegistryError, Unit, Window};
use grain_service::{JobHandle, JobOutcome, JobService, JobShape, JobSpec, JobState, PolicyHook};
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

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
            let tenants = auto.tenants.lock();
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
            let tenants = auto.tenants.lock();
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
        *self.registry.lock() = Some(registry);
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

    /// Derive the controller signal from a completed job's own window:
    /// Eq. 1 over its phases' Σt_exec and Σt_func. A job's func time
    /// counts only its own phases, so all of its non-exec time is task
    /// overhead, and the idle rate is the overhead fraction.
    fn signal_from_outcome(&self, outcome: &JobOutcome) -> Option<GrainSignal> {
        if outcome.state != JobState::Completed {
            return None;
        }
        let window = Window {
            func_ns: outcome.func_ns,
            exec_ns: outcome.exec_ns,
            tasks: outcome.tasks_completed,
            ..Window::default()
        };
        let idle_rate = window.idle_rate();
        Some(GrainSignal {
            idle_rate,
            overhead_frac: idle_rate,
            tasks_per_core: window.tasks_per_core(self.cores.load(Ordering::Relaxed)),
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
        let mut c = entry.controller.lock();
        let next = c.observe(sig);
        entry.publish(&c);
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
            let c = entry.controller.lock();
            c.effective_grain(units)
        };
        let expanded = shape.expand(grain);
        let mut body = expanded.body;
        let spec = JobSpec::new(name, tenant)
            .estimated_tasks(expanded.tasks + 1)
            .shape(JobShape::new(units, grain));
        service.submit(spec, move |ctx| body(ctx))
    }

    /// Tenant names seen so far (storm reports iterate this).
    pub fn tenants(&self) -> Vec<String> {
        self.tenants.lock().keys().cloned().collect()
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
        let mut tenants = self.tenants.lock();
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
        let Some(registry) = self.registry.lock().clone() else {
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
            .field("tenants", &self.tenants.lock().len())
            .finish()
    }
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

    #[test]
    fn modeled_observations_move_the_published_grain() {
        let auto = Autotune::new(AutotuneConfig::default());
        let g0 = auto.grain_for("t");
        // A starved regime (huge idle, almost no tasks per core) must
        // shrink the grain.
        let sig = GrainSignal {
            idle_rate: 0.9,
            overhead_frac: 0.1,
            tasks_per_core: 0.5,
        };
        let g1 = auto.observe("t", &sig);
        assert!(g1 < g0, "starvation shrinks the grain ({g0} -> {g1})");
        assert_eq!(auto.grain_for("t"), g1);
        assert!(auto.adjustments("t") >= 1);
    }

    #[test]
    fn a_jobs_signal_is_eq1_over_its_own_window() {
        let auto = Autotune::new(AutotuneConfig {
            cores: 2,
            ..AutotuneConfig::default()
        });
        let outcome = JobOutcome {
            state: JobState::Completed,
            tasks_completed: 8,
            tasks_skipped: 0,
            tasks_budget_skipped: 0,
            tasks_spawned: 8,
            tasks_faulted: 0,
            exec_ns: 600,
            func_ns: 1_000,
            turnaround: std::time::Duration::from_millis(3),
            fault: None,
            retries: 0,
            reject_reason: None,
            origin_locality: None,
        };
        let sig = auto.signal_from_outcome(&outcome).expect("completed");
        assert_eq!(sig.idle_rate, 0.4);
        assert_eq!(sig.overhead_frac, 0.4);
        assert_eq!(sig.tasks_per_core, 4.0);
        // Wall time is not part of the window.
        let slower = JobOutcome {
            turnaround: std::time::Duration::from_secs(7),
            ..outcome.clone()
        };
        assert_eq!(auto.signal_from_outcome(&slower), Some(sig));
        let failed = JobOutcome {
            state: JobState::Failed,
            ..outcome
        };
        assert_eq!(auto.signal_from_outcome(&failed), None);
    }
}
