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
//! tenant's [`ThresholdTuner`] digests it and the tenant's next
//! [`Autotune::submit_shaped`] call expands at the adjusted grain.
//! Tenants that never submit shapes are untouched — the hook ignores
//! jobs without a [`grain_service::JobShape`].

use crate::shape::ShapedWork;
use grain_adaptive::{GrainSignal, ThresholdTuner, TunerConfig};
use grain_counters::derived::DerivedCounter;
use grain_counters::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use grain_counters::{Registry, RegistryError, Unit, Window};
use grain_service::{JobHandle, JobOutcome, JobService, JobShape, JobSpec, JobState, PolicyHook};
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

/// Hard cap on the task count any shaped job may expand to:
/// [`effective_grain`] coarsens the grain as needed to respect it. A
/// bound on what one job can queue, not a tuning decision.
const MAX_TASKS_PER_JOB: u64 = 4096;

/// Configuration of the autotune subsystem (shared by every tenant).
#[derive(Debug, Clone, Copy)]
pub struct AutotuneConfig {
    /// Master switch. When false, every tenant stays pinned at
    /// `tuner.initial_nx` forever — submissions expand exactly as a
    /// hand-partitioned job would (the byte-identical legacy path).
    pub enabled: bool,
    /// Tuner bounds and targets: initial/min/max grain (work units
    /// per task) and idle-rate target.
    pub tuner: TunerConfig,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            tuner: TunerConfig::default(),
        }
    }
}

/// One tenant's tuner and its published state. The atomics mirror the
/// tuner so counter reads never take the tuner lock.
struct TenantEntry {
    tuner: Mutex<ThresholdTuner>,
    grain: AtomicU64,
    converged: AtomicU64,
    probes: AtomicU64,
    adjustments: AtomicU64,
    jobs: AtomicU64,
}

impl TenantEntry {
    fn new(cfg: AutotuneConfig) -> Self {
        let tuner = ThresholdTuner::new(cfg.tuner);
        Self {
            grain: AtomicU64::new(grain_of(&tuner)),
            // A disabled tenant is pinned: settled from the start, and
            // never probing.
            converged: AtomicU64::new(u64::from(!cfg.enabled)),
            probes: AtomicU64::new(u64::from(cfg.enabled)),
            tuner: Mutex::new(tuner),
            adjustments: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
        }
    }
}

/// The tuner's size as a grain, which is never zero.
fn grain_of(tuner: &ThresholdTuner) -> u64 {
    (tuner.nx() as u64).max(1)
}

/// The grain to expand a job of `units` total work with: `grain`,
/// coarsened if needed so the job never expands to more than
/// `MAX_TASKS_PER_JOB` (4096) tasks. This bound holds whatever the
/// tuner does — it is the runtime's starvation guard.
fn effective_grain(grain: u64, units: u64) -> u64 {
    grain.max(units.div_ceil(MAX_TASKS_PER_JOB)).max(1)
}

/// Per-tenant online granularity control as a service policy. See the
/// [crate docs](crate) for the model and the module docs for wiring.
pub struct Autotune {
    cfg: AutotuneConfig,
    /// Cores the attached service schedules over (feeds per-job signal
    /// derivation); 1 until [`Autotune::attach`] runs.
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
            cores: AtomicUsize::new(1),
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
    /// tuner; unshaped jobs and non-completed outcomes pass
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

    /// Derive the tuner signal from a completed job's own window:
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
        Some(GrainSignal {
            idle_rate: window.idle_rate(),
            tasks_per_core: window.tasks_per_core(self.cores.load(Ordering::Relaxed)),
        })
    }

    /// The grain `tenant`'s next job will be chunked at.
    pub fn grain_for(&self, tenant: &str) -> u64 {
        self.entry(tenant).grain.load(Ordering::Relaxed)
    }

    /// True once `tenant`'s tuner sits frozen in its hysteresis band
    /// (or the subsystem is disabled).
    pub fn converged(&self, tenant: &str) -> bool {
        self.entry(tenant).converged.load(Ordering::Relaxed) != 0
    }

    /// Feed one completed-job signal into `tenant`'s tuner and return
    /// the tenant's next grain. The policy hook calls this with
    /// measured signals; deterministic harnesses (the convergence
    /// storm, the cost-model benchmark) call it directly with modeled
    /// ones.
    pub fn observe(&self, tenant: &str, sig: &GrainSignal) -> u64 {
        let entry = self.entry(tenant);
        entry.jobs.fetch_add(1, Ordering::Relaxed);
        if !self.cfg.enabled {
            return entry.grain.load(Ordering::Relaxed);
        }
        let mut tuner = entry.tuner.lock();
        let before = grain_of(&tuner);
        tuner.observe(sig);
        let next = grain_of(&tuner);
        if next != before {
            entry.adjustments.fetch_add(1, Ordering::Relaxed);
        }
        entry.grain.store(next, Ordering::Relaxed);
        entry
            .converged
            .store(u64::from(tuner.converged()), Ordering::Relaxed);
        entry.probes.store(1 + tuner.reopens(), Ordering::Relaxed);
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
        let grain = effective_grain(self.grain_for(tenant), units);
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

    /// Probe phases `tenant`'s tuner has opened: 1 for the first probe,
    /// +1 per re-open; 0 while the subsystem is disabled.
    pub fn probes(&self, tenant: &str) -> u64 {
        self.entry(tenant).probes.load(Ordering::Relaxed)
    }

    /// Grain adjustments `tenant`'s tuner has applied.
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
    /// path, so errors are swallowed — the tuner still runs, it is
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
            tasks_per_core: 0.5,
        };
        let g1 = auto.observe("t", &sig);
        assert!(g1 < g0, "starvation shrinks the grain ({g0} -> {g1})");
        assert_eq!(auto.grain_for("t"), g1);
        assert!(auto.adjustments("t") >= 1);
    }

    #[test]
    fn a_jobs_signal_is_eq1_over_its_own_window() {
        let auto = Autotune::new(AutotuneConfig::default());
        auto.cores.store(2, Ordering::Relaxed);
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

    #[test]
    fn disabled_autotune_never_moves() {
        let auto = Autotune::new(AutotuneConfig {
            enabled: false,
            ..AutotuneConfig::default()
        });
        let g0 = auto.grain_for("t");
        let loud = GrainSignal {
            idle_rate: 0.95,
            tasks_per_core: 200.0,
        };
        for _ in 0..10 {
            assert_eq!(auto.observe("t", &loud), g0);
        }
        assert_eq!(auto.jobs("t"), 10);
        assert_eq!(auto.adjustments("t"), 0);
        assert_eq!(auto.probes("t"), 0);
        assert!(auto.converged("t"), "a pinned tenant is trivially settled");
    }

    #[test]
    fn effective_grain_caps_the_task_count() {
        // 1M units at grain 16 would be 62_500 tasks; the guard
        // coarsens to exactly the cap.
        let g = effective_grain(16, 1_000_000);
        assert!(g > 16);
        assert!(1_000_000u64.div_ceil(g) <= MAX_TASKS_PER_JOB);
        // Small jobs keep the tuned grain.
        assert_eq!(effective_grain(16, 160), 16);
    }
}
