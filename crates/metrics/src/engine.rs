//! The virtual-time discrete-event engine: the runtime's scheduler on a
//! modeled machine.
//!
//! A worker's search *is* `grain-runtime`'s: one call to
//! [`Scheduler::find_work`] on a scheduler whose queues hold body-less
//! tasks, so the simulated figures follow the Fig. 1 order of the native
//! runtime by construction. Costs come from [`MachineModel`]:
//!
//! * a search is priced from the counts it leaves — every probe (the
//!   access counters' delta), every staged→pending conversion, and the
//!   steal's distance-dependent extra when the task's provenance names a
//!   victim;
//! * the model has no high-priority queue (the paper's stencil spawns no
//!   high-priority work), and its next slot stays empty: task completion
//!   releases dependents *spawned* (staged) on the completing worker —
//!   HPX's dataflow release — at a per-spawn cost;
//! * `Σt_func` covers everything between dispatches (search, conversion,
//!   steal, dispatch, execution, starvation); `Σt_exec` covers only the
//!   kernel time, so Eqs. 1–3 behave exactly as in the native runtime;
//! * idle workers model HPX's "keeps looking for work": their idle gaps
//!   are charged to `Σt_func` and their failed search sweeps (with a
//!   backoff factor) to the queue access/miss counters in closed form,
//!   not by running the search: [`MachineModel::failed_sweep_ns`] and
//!   its `*_probes_per_sweep` restate the probes of one failed
//!   `find_work`, less its low-priority probe.

use grain_counters::{Pcg32, ThreadCounters};
use grain_runtime::scheduler::{Scheduler, SearchState};
use grain_runtime::task::{Poll, Priority, StagedTask, TaskId};
use grain_sim::{MachineModel, SimReport, SimWorkload};
use grain_topology::Platform;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
}

impl Default for SimConfig {
    fn default() -> Self {
        Self { seed: 0x5eed }
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
    },
}

/// An event at a time, as the time's bits (times are non-negative, so
/// their bits order like the times), then a sequence number that breaks
/// ties in the order the events were scheduled. Reversed, so the
/// max-heap pops the earliest first.
type Event = Reverse<(u64, u64, EventKind)>;

/// The queue entry of workload task `i`: a body-less task named by its
/// index. The closure captures nothing, so no entry allocates.
fn entry(i: u32) -> StagedTask {
    StagedTask::phased(TaskId(u64::from(i)), Priority::Normal, |_| Poll::Complete)
}

struct Engine<'a> {
    m: MachineModel,
    /// Per-run machine-state factor applied to every task's kernel time.
    run_factor: f64,
    wl: &'a SimWorkload,
    /// The runtime's scheduler over the modeled workers.
    sched: Scheduler,
    counters: ThreadCounters,
    rng: Pcg32,
    heap: BinaryHeap<Event>,
    seq: u64,
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
}

impl<'a> Engine<'a> {
    fn schedule(&mut self, t: f64, kind: EventKind) {
        debug_assert!(t >= 0.0 && t.is_finite());
        self.seq += 1;
        self.heap.push(Reverse((t.to_bits(), self.seq, kind)));
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

    /// One search by worker `w`. Returns the task and the scheduling cost
    /// in ns, priced from the counts the search leaves: every probe,
    /// every conversion, and the steal if the task came from a peer.
    fn search(&self, w: usize) -> Option<(u32, f64)> {
        let c = &self.counters;
        let probes = || c.pending_accesses.get(w) + c.staged_accesses.get(w);
        let (probes0, converted0) = (probes(), c.converted.get(w));
        // Nothing is ever put in the next slot, so an empty one will do.
        let found = self.sched.find_work(w, c, &mut SearchState::default());
        let contenders = self.contenders();
        let cost = (probes() - probes0) as f64 * self.m.probe_ns(contenders)
            + (c.converted.get(w) - converted0) as f64 * self.m.convert_ns(contenders);
        let (task, prov) = found?;
        let task = task.id.0 as u32;
        Some(match prov.victim() {
            Some(p) => (task, cost + self.m.steal_extra_ns(p, w, contenders)),
            None => (task, cost),
        })
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
                let exec = self.run_factor
                    * self.m.exec_ns(
                        self.wl.tasks[task as usize].points,
                        self.executing,
                        self.wl.footprint_bytes,
                        &mut self.rng,
                    );
                let done_t = t + cost + self.m.dispatch_ns(contenders) + exec;
                self.schedule(
                    done_t,
                    EventKind::Done {
                        worker: w as u32,
                        task,
                        exec_ns: exec as u64,
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

    /// Worker `w` completes `task` at time `t`.
    fn done(&mut self, w: usize, task: u32, exec_ns: u64, t: f64) {
        let c = &self.counters;
        c.exec_ns.add(w, exec_ns);
        c.exec_histogram.record(w, exec_ns);
        c.func_ns.add(w, (t - self.mark[w]).max(0.0) as u64);
        self.mark[w] = t;
        c.phases.incr(w);
        self.busy[w] = false;
        self.executing -= 1;
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
                self.sched.queues.push_staged(w, entry(d));
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
        while let Some(Reverse((t_bits, _, kind))) = self.heap.pop() {
            let t = f64::from_bits(t_bits);
            match kind {
                EventKind::Wake(w) => self.wake(w as usize, t),
                EventKind::Done {
                    worker,
                    task,
                    exec_ns,
                } => {
                    final_t = t;
                    self.done(worker as usize, task, exec_ns, t);
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

    let deps_left: Vec<u32> = workload.tasks.iter().map(|t| t.deps.len() as u32).collect();
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, t) in workload.tasks.iter().enumerate() {
        for &d in &t.deps {
            dependents[d as usize].push(i as u32);
        }
    }

    // Root tasks are spawned by the external driver, round-robin across
    // the staged queues (the native runtime's external-spawn routing).
    let sched = Scheduler::new(m.numa.clone(), 0);
    let counters = ThreadCounters::new(workers);
    for i in (0..n).filter(|&i| deps_left[i] == 0) {
        let v = sched.queues.next_rr();
        sched.queues.push_staged(v, entry(i as u32));
        counters.spawned.incr(v);
    }

    let mut rng = Pcg32::seed_from_u64(config.seed);
    let run_factor = (RUN_JITTER_SIGMA * rng.next_gaussian()).exp();

    let mut engine = Engine {
        m,
        run_factor,
        wl: workload,
        sched,
        counters,
        rng,
        heap: BinaryHeap::new(),
        seq: 0,
        deps_left,
        dependents,
        busy: vec![false; workers],
        is_idle: vec![false; workers],
        idle_count: 0,
        mark: vec![0.0; workers],
        executing: 0,
        completed: 0,
    };
    for w in 0..workers {
        engine.schedule(0.0, EventKind::Wake(w as u32));
    }
    engine.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_sim::SimTaskSpec;
    use grain_stencil::{stencil_workload, StencilParams};
    use grain_topology::presets;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn empty_workload_finishes_instantly() {
        let r = simulate(&presets::haswell(), 4, &SimWorkload::new(), &cfg());
        assert_eq!(r.window.tasks, 0);
        assert_eq!(r.wall_ns, 0.0);
    }

    #[test]
    fn a_remote_staged_steal_first_probes_the_same_domain_pending_queues() {
        // Four workers in two domains, {0, 1} and {2, 3}. A root on worker
        // 0 releases four leaves into worker 0's staged queue; worker 1
        // steals one from its own domain, workers 2 and 3 each one from
        // the remote domain — after probing their peer's pending queue
        // (Fig. 1 step 4 before step 5).
        let mut p = presets::haswell();
        (p.cores, p.usable_cores) = (4, 4);
        let mut wl = SimWorkload::new();
        let root = wl.push(100, vec![]);
        for _ in 0..4 {
            wl.push(100, vec![root]);
        }
        let r = simulate(&p, 4, &wl, &cfg());
        assert_eq!(
            (r.window.tasks, r.window.stolen, r.window.converted),
            (5, 3, 5)
        );
        // A failed search probes 4 pending queues (5 staged, the low
        // queue's included), and there are 3 at the start and 1 + 2 + 3
        // as the leaves finish. The root and the leaves' searches probe
        // 2 + 2 + 2 + 3 + 3: workers 2 and 3 look at each other's pending
        // queue before worker 0's staged one.
        assert_eq!(r.window.pending_accesses, 9 * 4 + 12);
        assert_eq!(r.window.pending_misses, 9 * 4 + 7);
        assert_eq!(r.window.staged_accesses, 9 * 5 + 10);
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
        assert_eq!(r.window.tasks, 4);
    }

    #[test]
    fn simulates_the_stencil_end_to_end() {
        let p = StencilParams::new(5_000, 20, 10);
        let wl = stencil_workload(&p);
        let r = simulate(&presets::haswell(), 4, &wl, &cfg());
        assert_eq!(r.window.tasks as usize, p.total_tasks());
        assert!(r.wall_ns > 0.0);
    }

    #[test]
    fn dependency_chain_serializes_single_partition_runs() {
        // One partition: nt sequential tasks; more workers cannot help.
        let p = StencilParams::new(100_000, 1, 20);
        let wl = stencil_workload(&p);
        let one = simulate(&presets::haswell(), 1, &wl, &cfg());
        let many = simulate(&presets::haswell(), 8, &wl, &cfg());
        assert!(many.wall_ns > 0.6 * one.wall_ns);
    }

    #[test]
    #[should_panic(expected = "invalid workload")]
    fn invalid_workload_panics() {
        let mut wl = SimWorkload::new();
        wl.tasks.push(SimTaskSpec {
            points: 1,
            deps: vec![5],
        });
        simulate(&presets::haswell(), 1, &wl, &cfg());
    }
}
