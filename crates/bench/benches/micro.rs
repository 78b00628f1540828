//! Micro-benchmarks of the substrate costs the paper's model is built
//! from: task spawn/dispatch, future composition, scheduler queue
//! operations, the stencil kernel, and the simulator engine itself.
//!
//! A dependency-free harness (`harness = false`): each case is warmed up,
//! then timed over enough iterations to fill a fixed measurement budget;
//! the median of several repeats is reported as ns/op. Run with
//! `cargo bench -p grain-bench` (append `-- --quick` for a fast pass).

use grain_counters::ThreadCounters;
use grain_runtime::scheduler::{Scheduler, SearchState};
use grain_runtime::task::{Priority, StagedTask, TaskId};
use grain_runtime::{channel, when_all, Runtime, SchedulerKind, SharedFuture};
use grain_sim::{simulate, SimConfig, SimWorkload};
use grain_stencil::{heat_part, run_futurized, stencil_workload, StencilParams};
use grain_topology::{presets, NumaTopology};
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Harness {
    budget: Duration,
    repeats: usize,
}

impl Harness {
    fn from_args() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        if quick {
            Self {
                budget: Duration::from_millis(20),
                repeats: 3,
            }
        } else {
            Self {
                budget: Duration::from_millis(200),
                repeats: 5,
            }
        }
    }

    /// Time `f`, printing `name: median ns/op (ops/s)`.
    fn bench(&self, name: &str, mut f: impl FnMut()) {
        // Warm up and estimate a single-iteration cost.
        f();
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().max(Duration::from_nanos(50));
        let iters = (self.budget.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;

        let mut samples: Vec<f64> = (0..self.repeats)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / f64::from(iters)
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        println!(
            "{name:<42} {median:>14.1} ns/op {:>14.0} ops/s  ({iters} iters x {} repeats)",
            1e9 / median,
            self.repeats
        );
    }
}

fn bench_task_spawn(h: &Harness) {
    for workers in [1usize, 2, 4] {
        let rt = Runtime::with_workers(workers);
        let n = 5_000u64;
        h.bench(&format!("task_spawn/spawn_wait_5k/{workers}w"), || {
            for i in 0..n {
                rt.spawn(move |_| {
                    black_box(i);
                });
            }
            rt.wait_idle();
        });
    }
}

fn bench_futures(h: &Harness) {
    h.bench("futures/channel_set_get", || {
        let (p, f) = channel();
        p.set(black_box(42u64));
        black_box(*f.get());
    });
    h.bench("futures/when_all_64", || {
        let pairs: Vec<_> = (0..64).map(|_| channel::<u64>()).collect();
        let futs: Vec<SharedFuture<u64>> = pairs.iter().map(|(_, f)| f.clone()).collect();
        let all = when_all(&futs);
        for (i, (p, _)) in pairs.into_iter().enumerate() {
            p.set(i as u64);
        }
        black_box(all.get().len());
    });
    let rt = Runtime::with_workers(2);
    h.bench("futures/dataflow_chain_100", || {
        let mut f = rt.async_call(|_| 0u64);
        for _ in 0..100 {
            f = rt.dataflow(&[f], |_, v| *v[0] + 1);
        }
        black_box(*f.get());
    });
}

fn bench_scheduler_queues(h: &Harness) {
    let numa = NumaTopology::block(4, 2);
    let sched = Scheduler::new(numa, SchedulerKind::PriorityLocalFifo, 1);
    let counters = ThreadCounters::new(4);
    let mut search = SearchState::default();
    h.bench("scheduler/find_work_miss_sweep", || {
        black_box(sched.find_work(0, &counters, &mut search).is_none());
    });
    let mut id = 0u64;
    h.bench("scheduler/push_convert_dispatch", || {
        id += 1;
        sched
            .queues
            .push_staged(0, StagedTask::once(TaskId(id), Priority::Normal, |_| {}));
        black_box(sched.find_work(0, &counters, &mut search).is_some());
    });
    let mut id = 0u64;
    h.bench("scheduler/steal_from_peer", || {
        id += 1;
        sched
            .queues
            .push_staged(1, StagedTask::once(TaskId(id), Priority::Normal, |_| {}));
        black_box(sched.find_work(0, &counters, &mut search).is_some());
    });
}

fn bench_stencil_kernel(h: &Harness) {
    for nx in [1_000usize, 100_000] {
        let mid = vec![1.0f64; nx];
        let l = [0.5f64];
        let r = [2.0f64];
        h.bench(&format!("stencil_kernel/heat_part/{nx}"), || {
            black_box(heat_part(0.5, &l, &mid, &r));
        });
    }
}

fn bench_native_stencil(h: &Harness) {
    for nx in [1_000usize, 25_000] {
        let params = StencilParams::for_total(100_000, nx, 5);
        let rt = Runtime::with_workers(2);
        h.bench(&format!("native_stencil/run/{nx}"), || {
            black_box(run_futurized(&rt, &params).len());
        });
    }
}

fn bench_simulator(h: &Harness) {
    let params = StencilParams::for_total(1_000_000, 500, 5);
    let wl = stencil_workload(&params);
    let hw = presets::haswell();
    h.bench("simulator/stencil_10k_tasks_8c", || {
        black_box(simulate(&hw, 8, &wl, &SimConfig::default()).tasks);
    });
    let wl = SimWorkload::independent(10_000, 1_000);
    h.bench("simulator/independent_10k_tasks_28c", || {
        black_box(simulate(&hw, 28, &wl, &SimConfig::default()).tasks);
    });
}

fn bench_parallel_for_grain(h: &Harness) {
    use grain_runtime::algorithms::parallel_for;
    let rt = Runtime::with_workers(2);
    let n = 1 << 16;
    for grain in [16usize, 256, 4_096, 65_536] {
        h.bench(&format!("parallel_for_grain/sum_squares/{grain}"), || {
            parallel_for(&rt, 0..n, grain, |i| {
                black_box(i * i);
            })
            .get();
        });
    }
}

fn bench_adaptive(h: &Harness) {
    use grain_adaptive::{adapt, LoopMode, ThresholdTuner, TunerConfig};
    use grain_metrics::sweep::SimEngine;
    h.bench("adaptive/threshold_tuner_convergence", || {
        let engine = SimEngine::scaled(presets::haswell(), 1_000_000, 4);
        let mut tuner = ThresholdTuner::new(TunerConfig {
            initial_nx: 250,
            ..TunerConfig::default()
        });
        let mode = LoopMode {
            throttle: false,
            until_converged: true,
        };
        black_box(adapt(&engine, 8, &mut tuner, 16, mode).final_nx);
    });
}

fn main() {
    let h = Harness::from_args();
    println!("{:<42} {:>20} {:>20}", "benchmark", "time", "throughput");
    bench_task_spawn(&h);
    bench_futures(&h);
    bench_scheduler_queues(&h);
    bench_stencil_kernel(&h);
    bench_native_stencil(&h);
    bench_simulator(&h);
    bench_parallel_for_grain(&h);
    bench_adaptive(&h);
}
