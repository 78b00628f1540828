//! The virtual-time discrete-event engine.
//!
//! Semantics mirror `grain-runtime`'s worker loop and the Priority
//! Local-FIFO search order, with costs supplied by [`MachineModel`]:
//!
//! * a worker searches: own pending → own staged (convert → own pending →
//!   redo) → same-NUMA staged → same-NUMA pending → remote staged →
//!   remote pending; every probe costs time and bumps access/miss
//!   counters;
//! * task completion releases dependents, which are *spawned* (staged) on
//!   the completing worker — dataflow locality — at a per-spawn cost;
//! * `Σt_func` covers everything between dispatches (search, conversion,
//!   steal, dispatch, execution, starvation); `Σt_exec` covers only the
//!   kernel time, so Eqs. 1–3 behave exactly as in the native runtime;
//! * idle workers model HPX's "keeps looking for work": their idle gaps
//!   are charged to `Σt_func` and their failed search sweeps (with a
//!   backoff factor) to the queue access/miss counters, in closed form
//!   rather than event-by-event.

use crate::machine::MachineModel;
use crate::report::SimReport;
use crate::rng::Pcg32;
use crate::workload::SimWorkload;
use grain_counters::{FaultAction, FaultPlan, ThreadCounters};
use grain_topology::Platform;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Idle workers re-sweep the queues at `failed_sweep × IDLE_BACKOFF`
/// intervals (models HPX's idle backoff; affects only the access/miss
/// counter volume attributed to starvation, not timing). A constant of
/// the model, like the costs in [`MachineModel`], not a run parameter.
const IDLE_BACKOFF: f64 = 30.0;

/// Sigma of the per-run log-normal machine-state factor (frequency,
/// thermal and OS noise shared by every task of one run). This is what
/// gives repeated samples the few-percent COV the paper reports (§IV);
/// per-task jitter alone would average out.
const RUN_JITTER_SIGMA: f64 = 0.02;

/// What varies between runs of one workload on one machine (the machine
/// itself comes from [`grain_topology::Platform`]).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed for the jitter model; runs with equal seeds are
    /// bit-identical.
    pub seed: u64,
    /// Deterministic fault injection: each dispatch consults the plan
    /// with the task id and its attempt number, mirroring the native
    /// runtime's `fault-inject` hooks. An injected panic faults the
    /// attempt (charged like a real phase, counted in
    /// `SimReport::faulted`) and the task is retried on the same worker
    /// — the plan's per-attempt verdicts make the whole run, retries
    /// included, bit-identical for equal seeds.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            fault_plan: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// The worker should search for work now.
    Wake(u32),
    /// The worker finishes its current task now.
    Done {
        worker: u32,
        task: u32,
        /// Kernel time of the finishing task, ns (integral for counters).
        exec_ns: u64,
        /// The phase ends in an injected panic: the attempt faults and
        /// the task is retried instead of completing.
        faulted: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    key: Reverse<EventKeyOrd>,
    kind: EventKind,
}

// BinaryHeap is a max-heap; wrap the key so earliest-time pops first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKeyOrd(EventKeyBits);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKeyBits {
    // f64 time encoded order-preservingly (all times are non-negative).
    t_bits: u64,
    seq: u64,
}

fn key(t: f64, seq: u64) -> Reverse<EventKeyOrd> {
    debug_assert!(t >= 0.0 && t.is_finite());
    Reverse(EventKeyOrd(EventKeyBits {
        t_bits: t.to_bits(),
        seq,
    }))
}

fn key_time(k: &Reverse<EventKeyOrd>) -> f64 {
    f64::from_bits(k.0 .0.t_bits)
}

struct Engine<'a> {
    m: MachineModel,
    /// Per-run machine-state factor applied to every task's kernel time.
    run_factor: f64,
    wl: &'a SimWorkload,
    counters: ThreadCounters,
    rng: Pcg32,
    heap: BinaryHeap<Event>,
    seq: u64,
    staged: Vec<VecDeque<u32>>,
    pending: Vec<VecDeque<u32>>,
    deps_left: Vec<u32>,
    dependents: Vec<Vec<u32>>,
    busy: Vec<bool>,
    /// Worker is parked-idle (last search failed, nothing since).
    is_idle: Vec<bool>,
    /// Number of parked-idle workers.
    idle_count: usize,
    /// Per-worker "fully accounted up to" timestamp for Σt_func.
    mark: Vec<f64>,
    executing: usize,
    completed: usize,
    fault_plan: Option<FaultPlan>,
    /// Attempt number of each task's next dispatch (0 on first run).
    attempts: Vec<u64>,
}

impl<'a> Engine<'a> {
    fn schedule(&mut self, t: f64, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Event {
            key: key(t, self.seq),
            kind,
        });
    }

    /// Number of workers currently contending on the queue system (busy
    /// or searching — everyone not parked-idle).
    fn contenders(&self) -> usize {
        self.m.workers - self.idle_count
    }

    /// Charge an idle gap `[from, to]` of worker `w`: starvation time into
    /// Σt_func and the modeled number of failed sweeps into the queue
    /// counters. Idle sweeps run against quiet queues, so they use the
    /// current (low) contention level.
    fn charge_idle_gap(&mut self, w: usize, from: f64, to: f64) {
        if to <= from {
            return;
        }
        let gap = to - from;
        self.counters.func_ns.add(w, gap as u64);
        let sweep = self.m.failed_sweep_ns(self.contenders()) * IDLE_BACKOFF;
        if sweep > 0.0 {
            let sweeps = (gap / sweep).floor() as u64;
            if sweeps > 0 {
                let p = sweeps * self.m.pending_probes_per_sweep();
                let s = sweeps * self.m.staged_probes_per_sweep();
                self.counters.pending_accesses.add(w, p);
                self.counters.pending_misses.add(w, p);
                self.counters.staged_accesses.add(w, s);
                self.counters.staged_misses.add(w, s);
            }
        }
    }

    /// One search following the native scheduler's order. Returns the task
    /// and the accumulated scheduling cost in ns.
    fn search(&mut self, w: usize) -> Option<(u32, f64)> {
        let c = &self.counters;
        let contenders = self.m.workers - self.idle_count;
        let probe = self.m.probe_ns(contenders);
        let mut cost = 0.0;
        'search: loop {
            // 1. Own pending.
            cost += probe;
            c.pending_accesses.incr(w);
            if let Some(task) = self.pending[w].pop_front() {
                return Some((task, cost));
            }
            c.pending_misses.incr(w);

            // 2. Own staged: convert → own pending → redo.
            cost += probe;
            c.staged_accesses.incr(w);
            if let Some(task) = self.staged[w].pop_front() {
                c.converted.incr(w);
                cost += self.m.convert_ns(contenders);
                self.pending[w].push_back(task);
                continue 'search;
            }
            c.staged_misses.incr(w);

            // 3+5. Staged steals: same NUMA domain first, then remote.
            for p in self
                .m
                .numa
                .same_domain_peers(w)
                .into_iter()
                .chain(self.m.numa.remote_domain_peers(w))
            {
                cost += probe;
                c.staged_accesses.incr(w);
                if let Some(task) = self.staged[p].pop_front() {
                    c.converted.incr(w);
                    c.stolen.incr(w);
                    cost += self.m.convert_ns(contenders) + self.m.steal_extra_ns(p, w, contenders);
                    self.pending[w].push_back(task);
                    continue 'search;
                }
                c.staged_misses.incr(w);
            }
            // 4+6. Pending steals.
            for p in self
                .m
                .numa
                .same_domain_peers(w)
                .into_iter()
                .chain(self.m.numa.remote_domain_peers(w))
            {
                cost += probe;
                c.pending_accesses.incr(w);
                if let Some(task) = self.pending[p].pop_front() {
                    c.stolen.incr(w);
                    cost += self.m.steal_extra_ns(p, w, contenders);
                    return Some((task, cost));
                }
                c.pending_misses.incr(w);
            }
            return None;
        }
    }

    /// Worker `w` wakes at time `t`: account its idle gap, search, and
    /// either dispatch a task or fall idle again.
    fn wake(&mut self, w: usize, t: f64) {
        if self.busy[w] {
            return; // stale wake
        }
        // The gap since `mark` was starvation only if unfinished work
        // existed, which is true whenever a wake is scheduled mid-run.
        if self.completed < self.wl.tasks.len() {
            self.charge_idle_gap(w, self.mark[w], t);
        }
        self.mark[w] = t;
        if self.is_idle[w] {
            self.is_idle[w] = false;
            self.idle_count -= 1;
        }

        match self.search(w) {
            Some((task, cost)) => {
                self.busy[w] = true;
                self.executing += 1;
                let contenders = self.contenders();
                let mut exec = self.run_factor
                    * self.m.exec_ns(
                        self.wl.tasks[task as usize].points,
                        self.executing,
                        self.wl.footprint_bytes,
                        &mut self.rng,
                    );
                // Injection verdicts are a pure function of (seed, task,
                // attempt) — independent of event order, so a faulty run
                // replays bit-identically.
                let action = self.fault_plan.as_ref().map_or(FaultAction::None, |p| {
                    p.decide(u64::from(task), self.attempts[task as usize])
                });
                let mut faulted = false;
                match action {
                    FaultAction::None => {}
                    FaultAction::Panic => faulted = true,
                    FaultAction::Delay(d) => exec += d.as_nanos() as f64,
                    FaultAction::SpuriousWake => {
                        // Extra wakes for parked peers: they charge their
                        // idle gap, sweep the queues, and re-park.
                        for v in 0..self.m.workers {
                            if v != w && self.is_idle[v] {
                                self.schedule(t, EventKind::Wake(v as u32));
                            }
                        }
                    }
                }
                let done_t = t + cost + self.m.dispatch_ns(contenders) + exec;
                self.schedule(
                    done_t,
                    EventKind::Done {
                        worker: w as u32,
                        task,
                        exec_ns: exec as u64,
                        faulted,
                    },
                );
            }
            None => {
                // The failed sweep's probes were already counted by
                // `search`; the worker parks idle with `mark` current and
                // will be woken by the next completion that releases work.
                self.is_idle[w] = true;
                self.idle_count += 1;
            }
        }
    }

    /// Worker `w` completes (or faults) `task` at time `t`.
    fn done(&mut self, w: usize, task: u32, exec_ns: u64, faulted: bool, t: f64) {
        let c = &self.counters;
        c.exec_ns.add(w, exec_ns);
        c.exec_histogram.record(w, exec_ns);
        c.func_ns.add(w, (t - self.mark[w]).max(0.0) as u64);
        self.mark[w] = t;
        c.phases.incr(w);
        self.busy[w] = false;
        self.executing -= 1;
        if faulted {
            // The attempt panicked: charged like a real phase, but the
            // task did not complete and releases nothing. Retry on the
            // same worker (the unwound frame's cache residue is local).
            c.faulted.incr(w);
            self.attempts[task as usize] += 1;
            assert!(
                self.attempts[task as usize] < 1_000,
                "fault injection: task {task} faulted 1000 attempts in a row \
                 (panic_rate too close to 1?)"
            );
            self.staged[w].push_back(task);
            self.schedule(t, EventKind::Wake(w as u32));
            return;
        }
        c.tasks.incr(w);
        self.completed += 1;
        if self.completed == self.wl.tasks.len() {
            return;
        }

        // Release dependents: spawned (staged) on this worker, like the
        // native dataflow continuations.
        let mut released = 0u64;
        let deps = std::mem::take(&mut self.dependents[task as usize]);
        for d in deps {
            self.deps_left[d as usize] -= 1;
            if self.deps_left[d as usize] == 0 {
                self.staged[w].push_back(d);
                self.counters.spawned.incr(w);
                released += 1;
            }
        }
        let spawn_cost = released as f64 * self.m.spawn_ns(self.contenders());
        let resume_t = t + spawn_cost;

        // This worker searches again after running its continuations.
        self.schedule(resume_t, EventKind::Wake(w as u32));
        // Wake every idle peer: they each charge their starvation gap and
        // try to steal (most will fail and re-idle; that failed sweep is
        // the paper's "scheduler continues to look for work").
        for v in 0..self.m.workers {
            if v != w && !self.busy[v] {
                self.schedule(resume_t, EventKind::Wake(v as u32));
            }
        }
    }

    fn run(mut self) -> SimReport {
        let n = self.wl.tasks.len();
        if n == 0 {
            return SimReport::from_counters(0.0, &self.counters);
        }
        let mut final_t = 0.0;
        while let Some(ev) = self.heap.pop() {
            let t = key_time(&ev.key);
            match ev.kind {
                EventKind::Wake(w) => self.wake(w as usize, t),
                EventKind::Done {
                    worker,
                    task,
                    exec_ns,
                    faulted,
                } => {
                    final_t = t;
                    self.done(worker as usize, task, exec_ns, faulted, t);
                    if self.completed == n {
                        break;
                    }
                }
            }
        }
        assert_eq!(
            self.completed, n,
            "simulation deadlocked: {} of {} tasks completed (cyclic or \
             unsatisfiable dependencies?)",
            self.completed, n
        );
        SimReport::from_counters(final_t, &self.counters)
    }
}

/// Simulate `workload` on `workers` cores of `platform`.
///
/// # Panics
/// Panics if the workload fails validation or the worker count exceeds the
/// platform's usable cores.
pub fn simulate(
    platform: &Platform,
    workers: usize,
    workload: &SimWorkload,
    config: &SimConfig,
) -> SimReport {
    workload
        .validate()
        .unwrap_or_else(|e| panic!("invalid workload: {e}"));
    let m = MachineModel::new(platform, workers);
    let n = workload.tasks.len();

    let mut deps_left: Vec<u32> = workload.tasks.iter().map(|t| t.deps.len() as u32).collect();
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, t) in workload.tasks.iter().enumerate() {
        for &d in &t.deps {
            dependents[d as usize].push(i as u32);
        }
    }

    let mut staged: Vec<VecDeque<u32>> = (0..workers).map(|_| VecDeque::new()).collect();
    let pending: Vec<VecDeque<u32>> = (0..workers).map(|_| VecDeque::new()).collect();

    // Root tasks are spawned by the external driver, round-robin across
    // the staged queues (the native runtime's external-spawn routing).
    let counters = ThreadCounters::new(workers);
    let mut rr = 0usize;
    for (i, left) in deps_left.iter_mut().enumerate() {
        if *left == 0 {
            staged[rr % workers].push_back(i as u32);
            counters.spawned.incr(rr % workers);
            rr += 1;
        }
    }

    let mut rng = Pcg32::seed_from_u64(config.seed);
    let run_factor = (RUN_JITTER_SIGMA * rng.next_gaussian()).exp();

    let mut engine = Engine {
        m,
        run_factor,
        wl: workload,
        counters,
        rng,
        heap: BinaryHeap::new(),
        seq: 0,
        staged,
        pending,
        deps_left,
        dependents,
        busy: vec![false; workers],
        is_idle: vec![false; workers],
        idle_count: 0,
        mark: vec![0.0; workers],
        executing: 0,
        completed: 0,
        fault_plan: config.fault_plan.clone().filter(|p| !p.is_empty()),
        attempts: vec![0; n],
    };
    for w in 0..workers {
        engine.schedule(0.0, EventKind::Wake(w as u32));
    }
    engine.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SimWorkload;
    use grain_topology::presets;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn empty_workload_finishes_instantly() {
        let r = simulate(&presets::haswell(), 4, &SimWorkload::new(), &cfg());
        assert_eq!(r.tasks, 0);
        assert_eq!(r.wall_ns, 0.0);
    }

    #[test]
    fn single_task_time_matches_model() {
        let p = presets::haswell();
        let wl = SimWorkload::independent(1, 100_000);
        let r = simulate(&p, 1, &wl, &cfg());
        assert_eq!(r.tasks, 1);
        let kernel = p.perf.task_fixed_ns + 100_000.0 * p.perf.per_point_ns(1, 1, false);
        // Wall = kernel (± jitter) + scheduling costs.
        assert!(
            r.wall_ns > kernel * 0.8 && r.wall_ns < kernel * 1.3,
            "wall {}",
            r.wall_ns
        );
        assert!(r.sum_func_ns >= r.sum_exec_ns);
    }

    #[test]
    fn all_tasks_complete_and_counters_are_consistent() {
        let wl = SimWorkload::independent(500, 5_000);
        let r = simulate(&presets::haswell(), 8, &wl, &cfg());
        assert_eq!(r.tasks, 500);
        assert_eq!(r.converted, 500);
        assert_eq!(r.tasks_per_worker.iter().sum::<u64>(), 500);
        assert!(r.sum_func_ns >= r.sum_exec_ns);
        assert!(r.pending_accesses >= r.pending_misses);
        assert!(r.staged_accesses >= r.staged_misses);
        assert!((0.0..=1.0).contains(&r.idle_rate()));
    }

    #[test]
    fn parallelism_shrinks_wall_clock() {
        let wl = SimWorkload::independent(256, 50_000);
        let one = simulate(&presets::haswell(), 1, &wl, &cfg());
        let eight = simulate(&presets::haswell(), 8, &wl, &cfg());
        assert!(
            eight.wall_ns < one.wall_ns / 2.0,
            "8 workers {} vs 1 worker {}",
            eight.wall_ns,
            one.wall_ns
        );
    }

    #[test]
    fn chain_is_serialized_regardless_of_workers() {
        let wl = SimWorkload::chain(50, 50_000);
        let one = simulate(&presets::haswell(), 1, &wl, &cfg());
        let many = simulate(&presets::haswell(), 8, &wl, &cfg());
        // A dependency chain cannot parallelize; the multi-worker run pays
        // the same serial latency, modulated only by the first-touch
        // striping boost (a lone stream on a parallel run reads at
        // `stripe_factor` × the single-core bandwidth) and steal costs.
        let stripe = presets::haswell().perf.stripe_factor;
        assert!(many.wall_ns > one.wall_ns / (stripe * 1.2));
        assert!(many.wall_ns < one.wall_ns * 1.5);
        assert_eq!(many.tasks, 50);
    }

    #[test]
    fn starving_workers_accrue_idle_rate() {
        // One long chain on many workers: most workers starve, so Σt_func
        // must be much larger than Σt_exec (the coarse-grain right edge of
        // Figs. 4 and 5).
        let wl = SimWorkload::chain(20, 1_000_000);
        let r = simulate(&presets::haswell(), 16, &wl, &cfg());
        assert!(
            r.idle_rate() > 0.5,
            "idle-rate {} too low for a starving run",
            r.idle_rate()
        );
        // And the starving sweeps must show up in the queue counters.
        assert!(r.pending_misses > r.tasks * 16);
    }

    #[test]
    fn fine_grain_has_higher_overhead_share_than_medium_grain() {
        // Same total points, different granularity, 8 workers.
        let fine = SimWorkload::independent(10_000, 100);
        let medium = SimWorkload::independent(100, 10_000);
        let rf = simulate(&presets::haswell(), 8, &fine, &cfg());
        let rm = simulate(&presets::haswell(), 8, &medium, &cfg());
        assert!(
            rf.task_overhead_ns() / rf.task_duration_ns()
                > rm.task_overhead_ns() / rm.task_duration_ns(),
            "fine grain must have a worse overhead ratio"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let wl = SimWorkload::independent(200, 2_000);
        let a = simulate(&presets::xeon_phi(), 16, &wl, &cfg());
        let b = simulate(&presets::xeon_phi(), 16, &wl, &cfg());
        assert_eq!(a, b);
        let c = simulate(
            &presets::xeon_phi(),
            16,
            &wl,
            &SimConfig { seed: 99, ..cfg() },
        );
        assert_ne!(a.wall_ns, c.wall_ns, "different seed, different jitter");
    }

    #[test]
    fn injected_faults_retry_and_replay_bit_identically() {
        let wl = SimWorkload::independent(300, 2_000);
        let faulty = SimConfig {
            fault_plan: Some(FaultPlan::new(7).with_panic_rate(0.1)),
            ..SimConfig::default()
        };
        let a = simulate(&presets::haswell(), 4, &wl, &faulty);
        let b = simulate(&presets::haswell(), 4, &wl, &faulty);
        assert_eq!(a, b, "same fault plan must replay bit-identically");
        assert!(a.faulted > 0, "10% panic rate over 300 tasks must fault");
        assert_eq!(a.tasks, 300, "every task eventually completes");
        assert_eq!(a.phases, a.tasks + a.faulted);
        let clean = simulate(&presets::haswell(), 4, &wl, &cfg());
        assert_eq!(clean.faulted, 0, "no plan, no faults");
    }

    #[test]
    fn work_spreads_across_workers() {
        let wl = SimWorkload::independent(1_000, 10_000);
        let r = simulate(&presets::haswell(), 8, &wl, &cfg());
        let active = r.tasks_per_worker.iter().filter(|&&t| t > 0).count();
        assert!(active >= 7, "distribution {:?}", r.tasks_per_worker);
    }

    #[test]
    fn diamond_dependencies_resolve() {
        // a → (b, c) → d
        let mut wl = SimWorkload::new();
        let a = wl.push(1_000, vec![]);
        let b = wl.push(1_000, vec![a]);
        let c = wl.push(1_000, vec![a]);
        let _d = wl.push(1_000, vec![b, c]);
        let r = simulate(&presets::sandy_bridge(), 4, &wl, &cfg());
        assert_eq!(r.tasks, 4);
    }

    #[test]
    #[should_panic(expected = "invalid workload")]
    fn invalid_workload_panics() {
        let mut wl = SimWorkload::new();
        wl.tasks.push(crate::workload::SimTaskSpec {
            points: 1,
            deps: vec![5],
        });
        simulate(&presets::haswell(), 1, &wl, &cfg());
    }
}
