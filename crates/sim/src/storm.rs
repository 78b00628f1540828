//! Seeded overload-and-fault storms for the service and fleet replays.
//!
//! A [`StormPlan`] is a deterministic, pre-generated schedule of job
//! submissions across tenants: Poisson arrivals (exponential
//! inter-arrival draws from one [`Pcg32`] stream per
//! tenant), per-job task counts and grain sizes drawn from each tenant's
//! profile, and per-tenant *fault windows* — fractions of the horizon
//! during which that tenant's jobs panic. Equal seeds yield equal plans,
//! so a replay meets the exact same storm every time and its invariant
//! checks are meaningful across runs and machines.
//!
//! The plan knows nothing about the service: it is a pure description
//! (who submits what, when, and whether it faults). The storm property
//! test (`tests/properties.rs`) turns events into real `grain-service`
//! submissions on a scaled-down real-time clock, and `fleetstorm` routes
//! them through the fleet gateway.
//!
//! ## Seed-space split with the network chaos streams
//!
//! Storm tenants and [`crate::netplan::NetPlan`] verdict streams may be
//! driven by the *same* user-facing seed (the `netstorm` harness does
//! exactly that), so their Pcg32 streams must come from disjoint regions
//! of the 2⁶⁴ seed space. The contract: tenant `idx` seeds its stream as
//! `seed ^ (0x9e37_79b9_7f4a_7c15 · (idx + 1))` — the multiplicative
//! golden-ratio family over small indices — while every NetPlan stream
//! folds in [`crate::netplan::NET_STREAM_SALT`] and passes through a
//! full `splitmix64` finalizer. Changing either formula silently
//! decorrelates nothing and *recorrelates* everything, so the tenant
//! side is frozen by a bit-identity regression test below
//! (`recorded_storm_seed_is_bit_identical`) against a plan recorded when
//! the split was established.

use grain_counters::rng::{splitmix64, Pcg32};
use std::time::Duration;

/// Seed-space salt for the fleet-chaos stream ("fleetchaos" squeezed
/// into 8 bytes). Mirrors [`crate::netplan::NET_STREAM_SALT`]: fleet
/// kill/drain/partition draws share the user-facing seed with the
/// tenant and network streams, so they must live in their own region of
/// the seed space. The full `splitmix64` finalizer keeps the stream
/// decorrelated from the tenant formula (`seed ^ golden·(idx+1)`),
/// which is frozen by `recorded_storm_seed_is_bit_identical`.
const FLEET_STREAM_SALT: u64 = 0x666c_6565_7463_6f73; // "fleetcos"

/// The dependency-graph family a tenant's job bodies are drawn from.
///
/// This is a pure *description* — the plan stays agnostic of how jobs
/// execute. [`GraphFamily::Flat`] is the historical shape (the root
/// spawns `tasks` independent children); the other variants name the
/// `grain-taskbench` graph families, which `grain_taskbench::storm`
/// expands into real task DAGs. The family is per-tenant configuration, not a
/// per-event draw, so adding or changing families never perturbs the
/// seeded arrival/shape streams of existing plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GraphFamily {
    /// `tasks` independent children of the root (the legacy shape).
    #[default]
    Flat,
    /// 1-D stencil halo graph.
    Stencil,
    /// FFT butterfly graph.
    Butterfly,
    /// Tree reduce-then-broadcast graph.
    Tree,
    /// Seeded random DAG.
    RandomDag,
    /// Embarrassingly-parallel sweep (independent chains).
    Sweep,
}

impl GraphFamily {
    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            GraphFamily::Flat => "flat",
            GraphFamily::Stencil => "stencil",
            GraphFamily::Butterfly => "butterfly",
            GraphFamily::Tree => "tree",
            GraphFamily::RandomDag => "random-dag",
            GraphFamily::Sweep => "sweep",
        }
    }
}

/// One tenant's storm profile: its arrival process, job shape, and
/// (optionally) the window during which its jobs fault.
#[derive(Debug, Clone)]
pub struct TenantStorm {
    /// Tenant name, as submitted to the service.
    pub tenant: String,
    /// Mean of the exponential inter-arrival distribution.
    mean_interarrival: Duration,
    /// Inclusive range of tasks per job.
    pub tasks: (u64, u64),
    /// Inclusive range of per-task grain (virtual busy time).
    pub grain: (Duration, Duration),
    /// Deadline attached to every job of this tenant, if any.
    pub deadline: Option<Duration>,
    /// Fraction of the horizon `[start, end)` (both in `0.0..=1.0`)
    /// during which this tenant's jobs panic instead of working.
    fault_window: Option<(f64, f64)>,
    /// Dependency-graph family this tenant's job bodies use. Defaults
    /// to [`GraphFamily::Flat`] (the historical shape).
    pub family: GraphFamily,
}

impl TenantStorm {
    /// A well-behaved tenant: steady arrivals, no faults.
    pub fn steady(
        tenant: &str,
        mean_interarrival: Duration,
        tasks: (u64, u64),
        grain: (Duration, Duration),
    ) -> Self {
        Self {
            tenant: tenant.to_owned(),
            mean_interarrival,
            tasks,
            grain,
            deadline: None,
            fault_window: None,
            family: GraphFamily::Flat,
        }
    }

    /// Attach a per-job deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Make jobs submitted inside `[start, end)` of the horizon panic.
    pub fn faulting_during(mut self, start: f64, end: f64) -> Self {
        self.fault_window = Some((start, end));
        self
    }

    /// Draw this tenant's job bodies from a dependency-graph family.
    pub fn family(mut self, family: GraphFamily) -> Self {
        self.family = family;
        self
    }
}

/// One planned submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormEvent {
    /// Offset from the storm start (virtual time).
    pub at: Duration,
    /// Owning tenant.
    pub tenant: String,
    /// Unique job name (`<tenant>-<n>`).
    pub name: String,
    /// Tasks the job spawns (beyond its root).
    pub tasks: u64,
    /// Busy time per task.
    pub grain: Duration,
    /// Deadline relative to submission, if the tenant has one.
    pub deadline: Option<Duration>,
    /// Whether this job panics instead of completing its work.
    pub faulty: bool,
    /// Dependency-graph family of the job body (copied from the
    /// tenant's profile; consumes no randomness).
    pub family: GraphFamily,
}

/// A fleet-level chaos action applied to the worker fleet mid-storm.
/// Pure description — the harness decides what "kill" or "drain" means
/// (sever links, announce drain over the parcelport, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAction {
    /// The worker locality dies abruptly: links sever, in-flight work
    /// is orphaned.
    Kill {
        /// The dying worker's locality id.
        worker: usize,
    },
    /// The worker announces a graceful drain: it stops accepting and
    /// hands queued jobs back.
    Drain {
        /// The draining worker's locality id.
        worker: usize,
    },
    /// The gateway↔worker link partitions (the harness picks the
    /// partition mode).
    Partition {
        /// The partitioned worker's locality id.
        worker: usize,
    },
    /// The matching partition heals.
    Heal {
        /// The healing worker's locality id.
        worker: usize,
    },
}

/// One scheduled fleet-chaos action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEvent {
    /// Offset from the storm start (virtual time).
    pub at: Duration,
    /// What happens.
    pub action: FleetAction,
}

/// Knobs for [`StormPlan::with_fleet_chaos`].
#[derive(Debug, Clone, Copy)]
pub struct FleetChaos {
    /// Workers killed over the storm (distinct victims, clamped to the
    /// fleet size minus one so at least one worker survives).
    pub kills: usize,
    /// Graceful drains (victims drawn independently of kills; draining
    /// an already-dead worker is a harness no-op).
    pub drains: usize,
    /// Partition/heal cycles on gateway↔worker links.
    pub partitions: usize,
    /// How long each partition holds before its heal event.
    pub partition_window: Duration,
}

/// A full, deterministic storm: every event of every tenant, merged and
/// sorted by submission time.
#[derive(Debug, Clone)]
pub struct StormPlan {
    /// All events, sorted by `at` (ties broken by tenant then name, so
    /// the order is total and seed-stable).
    pub events: Vec<StormEvent>,
    /// Fleet-chaos actions (kill/drain/partition/heal), sorted by `at`.
    /// Empty unless [`StormPlan::with_fleet_chaos`] was applied; drawn
    /// from a salted stream disjoint from the tenant streams, so adding
    /// fleet chaos never perturbs the submission schedule.
    pub fleet: Vec<FleetEvent>,
    /// The horizon the plan covers.
    pub horizon: Duration,
}

impl StormPlan {
    /// Generate the plan for `tenants` over `horizon` from `seed`.
    ///
    /// Each tenant draws from its own PCG stream (seeded from `seed`
    /// and the tenant's index), so adding a tenant to the list never
    /// perturbs the arrivals of the tenants before it.
    pub fn generate(seed: u64, horizon: Duration, tenants: &[TenantStorm]) -> Self {
        let mut events = Vec::new();
        for (idx, t) in tenants.iter().enumerate() {
            let mut rng = Pcg32::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(idx as u64 + 1)),
            );
            let mean_s = t.mean_interarrival.as_secs_f64().max(1e-9);
            let mut at_s = 0.0f64;
            let mut n = 0u64;
            loop {
                // Exponential inter-arrival: -mean · ln(1 − u).
                let u = rng.next_f64();
                at_s += -mean_s * (1.0 - u).ln();
                if at_s >= horizon.as_secs_f64() {
                    break;
                }
                let at = Duration::from_secs_f64(at_s);
                let tasks = t.tasks.0 + rng.range_u64(t.tasks.1 - t.tasks.0 + 1);
                let grain_ns = {
                    let lo = t.grain.0.as_nanos() as u64;
                    let hi = t.grain.1.as_nanos() as u64;
                    if hi > lo {
                        lo + rng.range_u64(hi - lo + 1)
                    } else {
                        lo
                    }
                };
                let frac = at_s / horizon.as_secs_f64();
                let faulty = t.fault_window.is_some_and(|(s, e)| frac >= s && frac < e);
                events.push(StormEvent {
                    at,
                    tenant: t.tenant.clone(),
                    name: format!("{}-{n}", t.tenant),
                    tasks,
                    grain: Duration::from_nanos(grain_ns),
                    deadline: t.deadline,
                    faulty,
                    family: t.family,
                });
                n += 1;
            }
        }
        events.sort_by(|a, b| {
            a.at.cmp(&b.at)
                .then_with(|| a.tenant.cmp(&b.tenant))
                .then_with(|| a.name.cmp(&b.name))
        });
        Self {
            events,
            fleet: Vec::new(),
            horizon,
        }
    }

    /// Overlay a seeded schedule of fleet-chaos actions on the plan.
    ///
    /// Draws come from one dedicated Pcg32 stream seeded
    /// `splitmix64(seed ^ FLEET_STREAM_SALT)` — disjoint from both the
    /// tenant streams and every NetPlan stream — so the same user-facing
    /// seed can drive submissions, network weather, and fleet chaos
    /// without any of the three perturbing the others. All actions land
    /// in the middle 10%–85% of the horizon: chaos at the very edges
    /// either precedes any work or outlives it. Kill victims are
    /// distinct and at least one worker always survives.
    pub fn with_fleet_chaos(mut self, seed: u64, workers: &[usize], chaos: &FleetChaos) -> Self {
        let mut rng = Pcg32::seed_from_u64(splitmix64(seed ^ FLEET_STREAM_SALT));
        let horizon_s = self.horizon.as_secs_f64();
        let draw_at =
            |rng: &mut Pcg32| Duration::from_secs_f64(horizon_s * (0.10 + 0.75 * rng.next_f64()));
        let mut fleet = Vec::new();
        if !workers.is_empty() {
            // Kills: sample distinct victims, leaving at least one
            // survivor.
            let kills = chaos.kills.min(workers.len().saturating_sub(1));
            let mut pool: Vec<usize> = workers.to_vec();
            for _ in 0..kills {
                let pick = rng.range_u64(pool.len() as u64) as usize;
                let worker = pool.swap_remove(pick);
                fleet.push(FleetEvent {
                    at: draw_at(&mut rng),
                    action: FleetAction::Kill { worker },
                });
            }
            for _ in 0..chaos.drains {
                let worker = workers[rng.range_u64(workers.len() as u64) as usize];
                fleet.push(FleetEvent {
                    at: draw_at(&mut rng),
                    action: FleetAction::Drain { worker },
                });
            }
            for _ in 0..chaos.partitions {
                let worker = workers[rng.range_u64(workers.len() as u64) as usize];
                let at = draw_at(&mut rng);
                fleet.push(FleetEvent {
                    at,
                    action: FleetAction::Partition { worker },
                });
                fleet.push(FleetEvent {
                    at: at + chaos.partition_window,
                    action: FleetAction::Heal { worker },
                });
            }
        }
        fleet.sort_by_key(|e| e.at);
        self.fleet = fleet;
        self
    }

    /// Events belonging to `tenant`, in submission order.
    #[cfg(test)]
    fn of_tenant<'a>(&'a self, tenant: &'a str) -> impl Iterator<Item = &'a StormEvent> {
        self.events.iter().filter(move |e| e.tenant == tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_counters::rng::{fnv1a, FNV1A_OFFSET};

    fn three_tenants() -> Vec<TenantStorm> {
        vec![
            TenantStorm::steady(
                "alpha",
                Duration::from_millis(50),
                (2, 8),
                (Duration::from_micros(100), Duration::from_micros(400)),
            )
            .deadline(Duration::from_millis(200)),
            TenantStorm::steady(
                "beta",
                Duration::from_millis(80),
                (4, 16),
                (Duration::from_micros(200), Duration::from_micros(800)),
            ),
            TenantStorm::steady(
                "chaos",
                Duration::from_millis(25),
                (1, 4),
                (Duration::from_micros(50), Duration::from_micros(100)),
            )
            .faulting_during(0.0, 0.6),
        ]
    }

    /// Bit-identity regression against a recorded storm. The tenant
    /// seeding formula (`seed ^ golden·(idx+1)`, see the module docs) is
    /// a public contract shared with the network chaos streams in
    /// [`crate::netplan`]: if it drifts, every replayed storm and every
    /// recorded `netstorm` report silently changes meaning. The constant
    /// below is the FNV-1a fingerprint of the plan that seed 7 produced
    /// over the three-tenant fixture when the stream-space split was
    /// established; it must never change.
    #[test]
    fn recorded_storm_seed_is_bit_identical() {
        let plan = StormPlan::generate(7, Duration::from_secs(5), &three_tenants());
        let mut h = FNV1A_OFFSET;
        for e in &plan.events {
            h = fnv1a(h, &(e.at.as_nanos() as u64).to_le_bytes());
            h = fnv1a(h, e.name.as_bytes());
            h = fnv1a(h, &e.tasks.to_le_bytes());
            h = fnv1a(h, &(e.grain.as_nanos() as u64).to_le_bytes());
            h = fnv1a(h, &[u8::from(e.faulty)]);
        }
        assert_eq!(
            h, 0xef04_fe54_fc29_27af,
            "the seeded tenant streams drifted: replayed storms and recorded \
             netstorm reports no longer mean what they meant when recorded"
        );
    }

    #[test]
    fn same_seed_same_plan() {
        let a = StormPlan::generate(7, Duration::from_secs(5), &three_tenants());
        let b = StormPlan::generate(7, Duration::from_secs(5), &three_tenants());
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = StormPlan::generate(7, Duration::from_secs(5), &three_tenants());
        let b = StormPlan::generate(8, Duration::from_secs(5), &three_tenants());
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn events_are_sorted_and_within_horizon() {
        let plan = StormPlan::generate(42, Duration::from_secs(3), &three_tenants());
        for w in plan.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for e in &plan.events {
            assert!(e.at < plan.horizon);
        }
    }

    #[test]
    fn fault_window_bounds_faulty_events() {
        let plan = StormPlan::generate(3, Duration::from_secs(5), &three_tenants());
        let horizon = plan.horizon.as_secs_f64();
        for e in plan.events.iter() {
            let frac = e.at.as_secs_f64() / horizon;
            match e.tenant.as_str() {
                "chaos" => assert_eq!(e.faulty, (0.0..0.6).contains(&frac)),
                _ => assert!(!e.faulty),
            }
        }
        assert!(
            plan.events.iter().any(|e| e.faulty),
            "chaos must fault in its window"
        );
        assert!(
            plan.of_tenant("chaos").any(|e| !e.faulty),
            "chaos must recover after its window"
        );
    }

    #[test]
    fn adding_a_tenant_preserves_earlier_streams() {
        let two = &three_tenants()[..2];
        let a = StormPlan::generate(11, Duration::from_secs(4), two);
        let b = StormPlan::generate(11, Duration::from_secs(4), &three_tenants());
        let alpha_a: Vec<_> = a.of_tenant("alpha").cloned().collect();
        let alpha_b: Vec<_> = b.of_tenant("alpha").cloned().collect();
        assert_eq!(alpha_a, alpha_b);
    }

    #[test]
    fn families_ride_along_without_perturbing_streams() {
        let plain = StormPlan::generate(21, Duration::from_secs(4), &three_tenants());
        let mut shaped = three_tenants();
        shaped[0] = shaped[0].clone().family(GraphFamily::Stencil);
        shaped[1] = shaped[1].clone().family(GraphFamily::Tree);
        let with_families = StormPlan::generate(21, Duration::from_secs(4), &shaped);
        assert_eq!(plain.events.len(), with_families.events.len());
        for (a, b) in plain.events.iter().zip(&with_families.events) {
            // Identical arrivals and shapes — the family consumed no
            // randomness — only the family label differs.
            assert_eq!(a.at, b.at);
            assert_eq!(a.name, b.name);
            assert_eq!(a.tasks, b.tasks);
            assert_eq!(a.grain, b.grain);
            assert_eq!(a.faulty, b.faulty);
        }
        assert!(with_families
            .of_tenant("alpha")
            .all(|e| e.family == GraphFamily::Stencil));
        assert!(plain.events.iter().all(|e| e.family == GraphFamily::Flat));
    }

    fn some_chaos() -> FleetChaos {
        FleetChaos {
            kills: 2,
            drains: 1,
            partitions: 1,
            partition_window: Duration::from_millis(400),
        }
    }

    #[test]
    fn fleet_chaos_rides_along_without_perturbing_streams() {
        let plain = StormPlan::generate(7, Duration::from_secs(5), &three_tenants());
        let chaotic = StormPlan::generate(7, Duration::from_secs(5), &three_tenants())
            .with_fleet_chaos(7, &[1, 2, 3], &some_chaos());
        assert_eq!(
            plain.events, chaotic.events,
            "fleet chaos draws from its own stream; submissions unchanged"
        );
        assert!(plain.fleet.is_empty());
        assert!(!chaotic.fleet.is_empty());
    }

    #[test]
    fn fleet_chaos_is_deterministic_and_bounded() {
        let a = StormPlan::generate(7, Duration::from_secs(5), &three_tenants()).with_fleet_chaos(
            7,
            &[1, 2, 3],
            &some_chaos(),
        );
        let b = StormPlan::generate(7, Duration::from_secs(5), &three_tenants()).with_fleet_chaos(
            7,
            &[1, 2, 3],
            &some_chaos(),
        );
        assert_eq!(a.fleet, b.fleet);
        for w in a.fleet.windows(2) {
            assert!(w[0].at <= w[1].at, "fleet events sorted");
        }
        for e in &a.fleet {
            assert!(e.at >= Duration::from_millis(500), "not before 10%");
            // Heals may stretch past 85% by the partition window.
            assert!(e.at <= Duration::from_millis(4650), "within horizon");
        }
    }

    #[test]
    fn fleet_kills_leave_a_survivor_and_are_distinct() {
        let plan = StormPlan::generate(3, Duration::from_secs(5), &three_tenants())
            .with_fleet_chaos(
                3,
                &[1, 2],
                &FleetChaos {
                    kills: 5,
                    drains: 0,
                    partitions: 0,
                    partition_window: Duration::ZERO,
                },
            );
        let victims: Vec<usize> = plan
            .fleet
            .iter()
            .filter_map(|e| match e.action {
                FleetAction::Kill { worker } => Some(worker),
                _ => None,
            })
            .collect();
        assert_eq!(victims.len(), 1, "kills clamp to fleet size - 1");
        let mut dedup = victims.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), victims.len(), "victims are distinct");
    }

    #[test]
    fn fleet_partitions_pair_with_heals() {
        let plan = StormPlan::generate(11, Duration::from_secs(5), &three_tenants())
            .with_fleet_chaos(
                11,
                &[1, 2, 3],
                &FleetChaos {
                    kills: 0,
                    drains: 0,
                    partitions: 3,
                    partition_window: Duration::from_millis(200),
                },
            );
        let cuts = plan
            .fleet
            .iter()
            .filter(|e| matches!(e.action, FleetAction::Partition { .. }))
            .count();
        let heals = plan
            .fleet
            .iter()
            .filter(|e| matches!(e.action, FleetAction::Heal { .. }))
            .count();
        assert_eq!(cuts, 3);
        assert_eq!(heals, 3);
    }

    #[test]
    fn job_shapes_respect_profile_ranges() {
        let plan = StormPlan::generate(9, Duration::from_secs(5), &three_tenants());
        for e in plan.of_tenant("alpha") {
            assert!((2..=8).contains(&e.tasks));
            assert!(e.grain >= Duration::from_micros(100));
            assert!(e.grain <= Duration::from_micros(400));
            assert_eq!(e.deadline, Some(Duration::from_millis(200)));
        }
        for e in plan.of_tenant("beta") {
            assert_eq!(e.deadline, None);
        }
    }
}
