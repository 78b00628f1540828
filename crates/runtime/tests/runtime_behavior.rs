//! End-to-end behavioral tests of the runtime: spawning, dataflow,
//! suspension, priorities, stealing, counters, and shutdown.

use grain_runtime::{
    channel, when_all, Poll, Priority, Runtime, RuntimeConfig, SchedulerKind, SharedFuture,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn rt(workers: usize) -> Runtime {
    Runtime::new(RuntimeConfig::with_workers(workers))
}

#[test]
fn runs_a_single_task() {
    let r = rt(1);
    let hit = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&hit);
    r.spawn(move |_| {
        h.fetch_add(1, Ordering::SeqCst);
    });
    r.wait_idle();
    assert_eq!(hit.load(Ordering::SeqCst), 1);
    assert_eq!(r.counters().tasks.sum(), 1);
}

#[test]
fn runs_many_tasks_on_many_workers() {
    let r = rt(4);
    let hits = Arc::new(AtomicUsize::new(0));
    for _ in 0..10_000 {
        let h = Arc::clone(&hits);
        r.spawn(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
    }
    r.wait_idle();
    assert_eq!(hits.load(Ordering::SeqCst), 10_000);
    assert_eq!(r.counters().tasks.sum(), 10_000);
    assert_eq!(r.in_flight(), 0);
}

#[test]
fn tasks_spawn_children_recursively() {
    let r = rt(2);
    let hits = Arc::new(AtomicUsize::new(0));

    fn fan_out(ctx: &grain_runtime::TaskContext<'_>, depth: usize, hits: Arc<AtomicUsize>) {
        hits.fetch_add(1, Ordering::SeqCst);
        if depth > 0 {
            for _ in 0..2 {
                let h = Arc::clone(&hits);
                ctx.spawn(move |ctx| fan_out(ctx, depth - 1, h));
            }
        }
    }

    let h = Arc::clone(&hits);
    r.spawn(move |ctx| fan_out(ctx, 10, h));
    r.wait_idle();
    // 2^0 + 2^1 + … + 2^10 = 2047.
    assert_eq!(hits.load(Ordering::SeqCst), 2047);
}

#[test]
fn async_call_returns_value() {
    let r = rt(2);
    let f = r.async_call(|_| 6 * 7);
    assert_eq!(*f.get(), 42);
}

#[test]
fn dataflow_chains_compose() {
    let r = rt(2);
    // A diamond: a → (b, c) → d.
    let a = r.async_call(|_| 1u64);
    let b = r.dataflow(std::slice::from_ref(&a), |_, v| *v[0] + 10);
    let c = r.dataflow(&[a], |_, v| *v[0] + 100);
    let d = r.dataflow(&[b, c], |_, v| *v[0] + *v[1]);
    assert_eq!(*d.get(), 112);
}

#[test]
fn dataflow_waits_for_all_inputs() {
    let r = rt(2);
    let (p, gate) = grain_runtime::channel::<u32>();
    let fast = r.async_call(|_| 5u32);
    let sum = r.dataflow(&[gate, fast], |_, v| *v[0] + *v[1]);
    std::thread::sleep(Duration::from_millis(20));
    assert!(!sum.is_ready(), "must wait for the gated input");
    p.set(37);
    assert_eq!(*sum.get(), 42);
}

#[test]
fn dataflow_with_no_inputs_runs_at_once() {
    let r = rt(1);
    let out = r.dataflow(&[] as &[SharedFuture<u32>], |_, v| v.len());
    assert_eq!(*out.get(), 0);
    r.wait_idle();
    assert_eq!(r.counters().tasks.sum(), 1);
}

#[test]
fn dataflow_counts_a_repeated_input_once_per_mention() {
    let r = rt(2);
    let (p, f) = channel::<u64>();
    let out = r.dataflow(&[f.clone(), f.clone(), f], |_, v| *v[0] + *v[1] + *v[2]);
    assert!(!out.is_ready());
    p.set(5);
    assert_eq!(*out.get(), 15);
    r.wait_idle();
    assert_eq!(r.counters().tasks.sum(), 1, "the node fires once");
}

#[test]
fn dataflow_over_settled_inputs_fires_exactly_once() {
    let r = rt(2);
    let inputs: Vec<_> = (0..8u64).map(SharedFuture::ready).collect();
    let runs = Arc::new(AtomicUsize::new(0));
    let n = Arc::clone(&runs);
    let out = r.dataflow(&inputs, move |_, v| {
        n.fetch_add(1, Ordering::SeqCst);
        v.iter().map(|x| **x).sum::<u64>()
    });
    assert_eq!(*out.get(), 28);
    r.wait_idle();
    assert_eq!(runs.load(Ordering::SeqCst), 1);
    assert_eq!(r.counters().tasks.sum(), 1);
}

#[test]
fn long_dataflow_chain() {
    let r = rt(2);
    let mut f = r.async_call(|_| 0u64);
    for _ in 0..1_000 {
        f = r.dataflow(&[f], |_, v| *v[0] + 1);
    }
    assert_eq!(*f.get(), 1_000);
}

#[test]
fn when_all_inside_runtime() {
    let r = rt(2);
    let futs: Vec<SharedFuture<u64>> = (0..64).map(|i| r.async_call(move |_| i)).collect();
    let all = when_all(&futs);
    let total: u64 = all.get().iter().map(|a| **a).sum();
    assert_eq!(total, (0..64).sum());
}

#[test]
fn multiphase_task_yields() {
    let r = rt(1);
    let phases_seen = Arc::new(AtomicUsize::new(0));
    let p = Arc::clone(&phases_seen);
    let mut remaining = 5;
    r.spawn_phased(Priority::Normal, move |_ctx| {
        p.fetch_add(1, Ordering::SeqCst);
        remaining -= 1;
        if remaining == 0 {
            Poll::Complete
        } else {
            Poll::Yield
        }
    });
    r.wait_idle();
    assert_eq!(phases_seen.load(Ordering::SeqCst), 5);
    assert_eq!(r.counters().tasks.sum(), 1, "one task…");
    assert_eq!(r.counters().phases.sum(), 5, "…five phases");
}

#[test]
fn suspension_and_resume() {
    let r = rt(2);
    let (p, gate) = grain_runtime::channel::<u32>();
    let result = Arc::new(AtomicUsize::new(0));
    let res = Arc::clone(&result);
    let gate2 = gate.clone();
    r.spawn_phased(Priority::Normal, move |ctx| match gate2.try_get() {
        Some(v) => {
            res.store(*v.expect("gate not faulted") as usize, Ordering::SeqCst);
            Poll::Complete
        }
        None => {
            ctx.suspend_until(&gate2);
            Poll::Suspend
        }
    });
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(result.load(Ordering::SeqCst), 0);
    p.set(99);
    r.wait_idle();
    assert_eq!(result.load(Ordering::SeqCst), 99);
    assert_eq!(r.counters().tasks.sum(), 1);
    assert_eq!(r.counters().phases.sum(), 2, "suspension creates a phase");
}

#[test]
fn high_priority_runs_before_backlog() {
    // One worker, seeded with a slow backlog; a high-priority task spawned
    // afterwards must run before the rest of the backlog drains.
    let r = rt(1);
    let order = Arc::new(grain_runtime::grain_counters::sync::Mutex::new(Vec::new()));
    // Block the worker briefly so the backlog stays queued.
    for i in 0..50 {
        let o = Arc::clone(&order);
        r.spawn(move |_| {
            std::thread::sleep(Duration::from_micros(500));
            o.lock().push(format!("normal-{i}"));
        });
    }
    let o = Arc::clone(&order);
    r.spawn_with(Priority::High, move |_| {
        o.lock().push("high".to_owned());
    });
    r.wait_idle();
    let order = order.lock();
    let high_pos = order.iter().position(|s| s == "high").unwrap();
    assert!(
        high_pos < 25,
        "high-priority task ran at position {high_pos} of {}",
        order.len()
    );
}

#[test]
fn low_priority_runs_last_on_single_worker() {
    let r = rt(1);
    let order = Arc::new(grain_runtime::grain_counters::sync::Mutex::new(Vec::new()));
    // Occupy the single worker with a busy gate task so everything below
    // queues up before anything runs.
    let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
    {
        let release = Arc::clone(&release);
        r.spawn(move |_| {
            while !release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
    }
    std::thread::sleep(Duration::from_millis(10)); // let the gate start
    let o = Arc::clone(&order);
    r.spawn_with(Priority::Low, move |_| o.lock().push("low"));
    for _ in 0..10 {
        let o = Arc::clone(&order);
        r.spawn(move |_| o.lock().push("normal"));
    }
    release.store(true, Ordering::SeqCst);
    r.wait_idle();
    let order = order.lock();
    assert_eq!(*order.last().unwrap(), "low");
}

#[test]
fn work_is_stolen_across_workers() {
    // Spawn everything from the main thread targeting round-robin queues,
    // then check that multiple workers executed tasks (requires stealing
    // or the round-robin spread; both exercise cross-queue flow).
    let r = rt(4);
    for _ in 0..4_000 {
        r.spawn(|_| {
            std::hint::black_box(0u64);
        });
    }
    r.wait_idle();
    let per_worker = r.counters().tasks.values();
    let active_workers = per_worker.iter().filter(|&&n| n > 0).count();
    assert!(
        active_workers >= 2,
        "expected work spread over workers, got {per_worker:?}"
    );
    assert_eq!(per_worker.iter().sum::<u64>(), 4_000);
}

#[test]
fn nosteal_keeps_work_local() {
    let cfg = RuntimeConfig {
        workers: 2,
        scheduler: SchedulerKind::NoSteal,
        ..RuntimeConfig::default()
    };
    let r = Runtime::new(cfg);
    for _ in 0..100 {
        r.spawn(|_| {});
    }
    r.wait_idle();
    assert_eq!(r.counters().stolen.sum(), 0);
    assert_eq!(r.counters().tasks.sum(), 100);
}

#[test]
fn counter_invariants_hold_after_a_run() {
    let r = rt(3);
    for i in 0..2_000u64 {
        r.spawn(move |_| {
            std::hint::black_box(i * i);
        });
    }
    r.wait_idle();
    let c = r.counters();
    assert_eq!(c.tasks.sum(), 2_000);
    assert!(c.phases.sum() >= c.tasks.sum());
    assert!(
        c.func_ns.sum() >= c.exec_ns.sum(),
        "Σt_func ≥ Σt_exec must hold (Eq. 1 denominator)"
    );
    assert!(c.pending_accesses.sum() >= c.pending_misses.sum());
    assert!(c.staged_accesses.sum() >= c.staged_misses.sum());
    assert_eq!(c.converted.sum(), 2_000, "every task is converted once");
    let ir = c.idle_rate();
    assert!((0.0..=1.0).contains(&ir));
}

#[test]
fn registry_queries_work_during_execution() {
    let r = rt(2);
    for _ in 0..500 {
        r.spawn(|_| std::thread::sleep(Duration::from_micros(50)));
    }
    // Query while tasks are in flight — counters are introspectable at
    // runtime, the property the paper's adaptivity goal relies on.
    let v = r
        .registry()
        .query("/threads{locality#0/total}/count/cumulative")
        .unwrap();
    assert!(v.value >= 0.0);
    r.wait_idle();
    let after = r
        .registry()
        .query("/threads{locality#0/total}/count/cumulative")
        .unwrap();
    assert_eq!(after.value as u64, 500);
}

#[test]
fn reset_counters_starts_a_new_epoch() {
    let r = rt(2);
    for _ in 0..100 {
        r.spawn(|_| {});
    }
    r.wait_idle();
    assert_eq!(r.counters().tasks.sum(), 100);
    r.reset_counters();
    assert_eq!(r.counters().tasks.sum(), 0);
    for _ in 0..10 {
        r.spawn(|_| {});
    }
    r.wait_idle();
    assert_eq!(r.counters().tasks.sum(), 10);
}

#[test]
fn wait_idle_with_no_tasks_returns_immediately() {
    let r = rt(2);
    r.wait_idle();
    r.wait_idle();
}

#[test]
fn drop_waits_for_in_flight_tasks() {
    let hits = Arc::new(AtomicUsize::new(0));
    {
        let r = rt(2);
        for _ in 0..100 {
            let h = Arc::clone(&hits);
            r.spawn(move |_| {
                std::thread::sleep(Duration::from_micros(100));
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Drop without explicit wait_idle.
    }
    assert_eq!(hits.load(Ordering::SeqCst), 100);
}

#[test]
fn stress_mixed_workload() {
    let r = rt(4);
    let hits = Arc::new(AtomicUsize::new(0));
    let mut leaves = Vec::new();
    for i in 0..200u64 {
        let h = Arc::clone(&hits);
        let f = r.async_call(move |ctx| {
            h.fetch_add(1, Ordering::SeqCst);
            // Children at mixed priorities.
            for p in [Priority::High, Priority::Normal, Priority::Low] {
                ctx.spawn_with(p, |_| {
                    std::hint::black_box(1u8);
                });
            }
            i
        });
        leaves.push(f);
    }
    let total: u64 = leaves.iter().map(|f| *f.get()).sum();
    assert_eq!(total, (0..200).sum());
    r.wait_idle();
    assert_eq!(hits.load(Ordering::SeqCst), 200);
    assert_eq!(r.counters().tasks.sum(), 200 * 4);
}

#[test]
fn two_runtimes_coexist() {
    let r1 = rt(2);
    let r2 = rt(2);
    let f1 = r1.async_call(|_| 1);
    let f2 = r2.async_call(|_| 2);
    assert_eq!(*f1.get() + *f2.get(), 3);
    r1.wait_idle();
    r2.wait_idle();
    assert_eq!(r1.counters().tasks.sum(), 1);
    assert_eq!(r2.counters().tasks.sum(), 1);
}

#[test]
fn cross_runtime_spawn_routes_to_rr_queue() {
    // A task in runtime 1 spawning into runtime 2 must not be treated as
    // a worker of runtime 2 (the thread-local carries the runtime
    // address).
    let r1 = rt(1);
    let r2 = Arc::new(rt(1));
    let r2c = Arc::clone(&r2);
    let f = r1.async_call(move |_| {
        let inner = r2c.async_call(|_| 7u32);
        *inner.get()
    });
    assert_eq!(*f.get(), 7);
}

#[test]
fn queue_length_counters_reflect_backlog() {
    let r = rt(1);
    // Occupy the single worker so spawned tasks stay queued.
    let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
    {
        let release = Arc::clone(&release);
        r.spawn(move |_| {
            while !release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
    }
    std::thread::sleep(Duration::from_millis(10));
    for _ in 0..25 {
        r.spawn(|_| {});
    }
    std::thread::sleep(Duration::from_millis(5));
    let staged = r
        .registry()
        .query("/threads{locality#0/total}/count/staged-queue-length")
        .unwrap();
    assert!(
        staged.value >= 20.0,
        "backlog not visible: {}",
        staged.value
    );
    release.store(true, Ordering::SeqCst);
    r.wait_idle();
    let staged = r
        .registry()
        .query("/threads{locality#0/total}/count/staged-queue-length")
        .unwrap();
    assert_eq!(staged.value, 0.0);
}

#[test]
fn parallel_for_interacts_with_counters() {
    use grain_runtime::algorithms::parallel_for;
    let r = rt(2);
    parallel_for(&r, 0..4096, 64, |i| {
        std::hint::black_box(i);
    })
    .get();
    r.wait_idle();
    assert_eq!(r.counters().tasks.sum(), 64);
    assert_eq!(r.counters().converted.sum(), 64);
}

#[test]
fn starvation_shows_up_in_idle_rate() {
    // Two workers, one long task: the starving worker's searching time
    // must flow into Σt_func (the paper's coarse-grain idle-rate effect).
    let r = rt(2);
    r.spawn(|_| std::thread::sleep(Duration::from_millis(120)));
    r.wait_idle();
    let c = r.counters();
    let ir = c.idle_rate();
    assert!(
        ir > 0.25,
        "starving second worker should push idle-rate up, got {ir}"
    );
}

#[test]
fn busy_saturated_run_has_low_idle_rate() {
    // Plenty of equally-sized compute-bound tasks: idle-rate should be
    // small (the flat middle of Fig. 4).
    let r = rt(2);
    for _ in 0..200 {
        r.spawn(|_| {
            let mut x = 0u64;
            for i in 0..40_000u64 {
                // black_box keeps release builds from collapsing the loop
                // into a closed form (which would shrink tasks to ~0 ns
                // and make the idle-rate meaningless).
                x = x.wrapping_add(std::hint::black_box(i) * i);
            }
            std::hint::black_box(x);
        });
    }
    r.wait_idle();
    let ir = r.counters().idle_rate();
    assert!(
        ir < 0.35,
        "saturated run should have low idle-rate, got {ir}"
    );
}

#[test]
fn multiple_high_priority_queues_work() {
    let r = Runtime::new(RuntimeConfig {
        workers: 2,
        high_queues: 4,
        ..RuntimeConfig::default()
    });
    let hits = Arc::new(AtomicUsize::new(0));
    for _ in 0..100 {
        let h = Arc::clone(&hits);
        r.spawn_with(Priority::High, move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
    }
    r.wait_idle();
    assert_eq!(hits.load(Ordering::SeqCst), 100);
    assert_eq!(r.counters().tasks.sum(), 100);
}

#[test]
fn phase_counters_exceed_task_counters_with_yields() {
    let r = rt(2);
    for _ in 0..20 {
        let mut left = 3;
        r.spawn_phased(Priority::Normal, move |_| {
            left -= 1;
            if left == 0 {
                Poll::Complete
            } else {
                Poll::Yield
            }
        });
    }
    r.wait_idle();
    assert_eq!(r.counters().tasks.sum(), 20);
    assert_eq!(r.counters().phases.sum(), 60);
    // The per-phase average must be smaller than the per-task average.
    let per_task = r.counters().task_duration_ns();
    let per_phase = r.counters().exec_ns.sum() as f64 / r.counters().phases.sum() as f64;
    assert!(per_phase <= per_task);
}

#[test]
fn spawned_counter_tracks_origins() {
    let r = rt(2);
    // 10 external spawns, each spawning 3 children from worker context.
    for _ in 0..10 {
        r.spawn(|ctx| {
            for _ in 0..3 {
                ctx.spawn(|_| {});
            }
        });
    }
    r.wait_idle();
    assert_eq!(r.counters().spawned.sum(), 40);
    assert_eq!(r.counters().tasks.sum(), 40);
}

#[test]
fn throttled_workers_take_no_work() {
    let r = rt(4);
    r.set_active_workers(1);
    for _ in 0..500 {
        r.spawn(|_| {
            std::hint::black_box(7u64);
        });
    }
    r.wait_idle();
    let per_worker = r.counters().tasks.values();
    assert_eq!(per_worker[0], 500, "all work on worker 0: {per_worker:?}");
    assert!(per_worker[1..].iter().all(|&n| n == 0));
}

#[test]
fn raising_the_throttle_reactivates_workers() {
    let r = rt(4);
    r.set_active_workers(1);
    for _ in 0..50 {
        r.spawn(|_| std::thread::sleep(Duration::from_micros(200)));
    }
    r.set_active_workers(4);
    for _ in 0..2000 {
        r.spawn(|_| std::thread::sleep(Duration::from_micros(50)));
    }
    r.wait_idle();
    let per_worker = r.counters().tasks.values();
    let active = per_worker.iter().filter(|&&n| n > 0).count();
    assert!(
        active >= 2,
        "reactivated workers should run tasks: {per_worker:?}"
    );
    assert_eq!(per_worker.iter().sum::<u64>(), 2050);
}

#[test]
fn throttle_limit_is_clamped() {
    let r = rt(3);
    r.set_active_workers(0);
    assert_eq!(r.active_workers(), 1);
    r.set_active_workers(99);
    assert_eq!(r.active_workers(), 3);
}

#[test]
fn throttled_runtime_still_drains_and_shuts_down() {
    let hits = Arc::new(AtomicUsize::new(0));
    {
        let r = rt(4);
        r.set_active_workers(2);
        for _ in 0..300 {
            let h = Arc::clone(&hits);
            r.spawn(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Drop: wait_idle + join, with two workers permanently throttled.
    }
    assert_eq!(hits.load(Ordering::SeqCst), 300);
}

#[test]
fn tracing_captures_the_timeline() {
    let r = Runtime::new(RuntimeConfig {
        workers: 2,
        trace: true,
        ..RuntimeConfig::default()
    });
    for _ in 0..100 {
        r.spawn(|_| std::thread::sleep(Duration::from_micros(30)));
    }
    r.wait_idle();
    let trace = r.take_trace();
    assert!(!trace.is_empty());
    assert_eq!(trace.phases_per_worker().iter().sum::<usize>(), 100);
    let busy = trace.busy_ns_per_worker();
    assert!(busy.iter().sum::<u64>() > 100 * 25_000);
    assert!(trace.load_imbalance() >= 1.0);
    let gantt = trace.render_gantt(40);
    assert_eq!(gantt.lines().count(), 2);
    // Draining is destructive.
    assert!(r.take_trace().is_empty());
}

#[test]
fn tracing_disabled_by_default_costs_nothing() {
    let r = rt(2);
    for _ in 0..50 {
        r.spawn(|_| {});
    }
    r.wait_idle();
    assert!(r.take_trace().is_empty());
}
