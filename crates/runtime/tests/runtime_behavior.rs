//! End-to-end behavioral tests of the runtime: spawning, dataflow,
//! suspension, priorities, stealing, counters, and shutdown.

#[path = "support/pace.rs"]
mod pace;

use grain_counters::sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering};
use grain_runtime::{channel, when_all, Poll, Priority, Runtime, RuntimeConfig, SharedFuture};
use pace::pace;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    pace(Duration::from_millis(20));
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

/// A node's closure reads its inputs in the order given — by index and
/// by `iter` — whether the node keeps them in place (three or fewer) or
/// spilled, and whether they were ready when `dataflow` was called or
/// settled afterwards.
#[test]
fn dataflow_inputs_come_in_order_in_place_and_spilled() {
    let r = rt(2);
    for n in [0u64, 1, 3, 5] {
        let (promises, futures): (Vec<_>, Vec<_>) = (0..n).map(|_| channel::<u64>()).unzip();
        let mut late = Vec::new();
        for (i, p) in promises.into_iter().enumerate() {
            match i % 2 {
                0 => p.set(10 * i as u64),
                _ => late.push((i, p)),
            }
        }
        let out = r.dataflow(&futures, |_, v| {
            let by_index: Vec<u64> = (0..v.len()).map(|i| *v[i]).collect();
            let by_iter: Vec<u64> = v.iter().map(|x| **x).collect();
            assert_eq!(by_index, by_iter);
            assert_eq!(v.is_empty(), by_iter.is_empty());
            by_iter
        });
        if !late.is_empty() {
            assert!(!out.is_ready(), "{n} inputs, one pending");
        }
        for (i, p) in late {
            p.set(10 * i as u64);
        }
        let want: Vec<u64> = (0..n).map(|i| 10 * i).collect();
        assert_eq!(*out.get(), want, "{n} inputs");
    }
    r.wait_idle();
    assert_eq!(r.counters().tasks.sum(), 4);
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
fn a_yielding_task_lets_its_staged_sibling_run_on_one_worker() {
    let r = rt(1);
    let (flag, set) = channel::<()>();
    let (report, finished) = channel::<bool>();
    let (mut flag, mut report) = (Some(flag), Some(report));
    let give_up = Instant::now() + Duration::from_secs(3);
    // Spawns a sibling (staged on the only worker) that sets the flag,
    // then yields until it sees the flag or its own timer runs out.
    r.spawn_phased(Priority::Normal, move |ctx| {
        if let Some(flag) = flag.take() {
            ctx.spawn(move |_| flag.set(()));
        }
        if !set.is_ready() && Instant::now() < give_up {
            return Poll::Yield;
        }
        if let Some(report) = report.take() {
            report.set(set.is_ready());
        }
        Poll::Complete
    });
    assert_eq!(
        finished.wait_timeout(Duration::from_secs(1)).map(|v| *v),
        Ok(true),
        "the sibling waited behind the yielding task"
    );
    r.wait_idle();
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
    pace(Duration::from_millis(20));
    assert_eq!(result.load(Ordering::SeqCst), 0);
    p.set(99);
    r.wait_idle();
    assert_eq!(result.load(Ordering::SeqCst), 99);
    assert_eq!(r.counters().tasks.sum(), 1);
    assert_eq!(r.counters().phases.sum(), 2, "suspension creates a phase");
}

#[test]
fn tasks_created_up_front_and_suspended_on_later_inputs_cannot_deadlock_one_worker() {
    // Every link of a chain is spawned, last link first, on one worker
    // before its input exists; each suspends on that input. Only then is
    // the head settled: suspension must keep the worker free to run
    // whichever link is ready, in whatever order the links were queued.
    const N: usize = 64;
    let r = rt(1);
    let (head, first) = channel::<u64>();
    let mut inputs = vec![first];
    let mut promises = Vec::with_capacity(N);
    for _ in 0..N {
        let (p, f) = channel::<u64>();
        promises.push(p);
        inputs.push(f);
    }
    for (i, promise) in promises.into_iter().enumerate().rev() {
        let input = inputs[i].clone();
        let mut promise = Some(promise);
        r.spawn_phased(Priority::Normal, move |ctx| match input.try_get() {
            Some(v) => {
                if let Some(p) = promise.take() {
                    p.set(*v.expect("input not faulted") + 1);
                }
                Poll::Complete
            }
            None => {
                ctx.suspend_until(&input);
                Poll::Suspend
            }
        });
    }
    // No link can finish before the head settles, so once N phases have
    // run, every task is suspended.
    let deadline = Instant::now() + Duration::from_secs(10);
    while r.counters().phases.sum() < N as u64 {
        assert!(Instant::now() < deadline, "the links never ran");
        pace(Duration::from_millis(1));
    }
    assert_eq!(r.counters().tasks.sum(), 0);
    head.set(0);
    assert_eq!(
        inputs[N].wait_timeout(Duration::from_secs(10)).map(|v| *v),
        Ok(N as u64)
    );
    r.wait_idle();
    assert_eq!(r.counters().tasks.sum(), N as u64);
    assert_eq!(
        r.counters().phases.sum(),
        2 * N as u64,
        "one suspension per task"
    );
}

#[test]
fn high_priority_runs_before_backlog() {
    // One worker, seeded with a slow backlog; a high-priority task spawned
    // afterwards must run before the rest of the backlog drains.
    let r = rt(1);
    let order = Arc::new(Mutex::new(Vec::new()));
    // Block the worker briefly so the backlog stays queued.
    for i in 0..50 {
        let o = Arc::clone(&order);
        r.spawn(move |_| {
            pace(Duration::from_micros(500));
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
    let order = Arc::new(Mutex::new(Vec::new()));
    // Occupy the single worker with a busy gate task so everything below
    // queues up before anything runs.
    let release = Arc::new(AtomicBool::new(false));
    {
        let release = Arc::clone(&release);
        r.spawn(move |_| {
            while !release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
    }
    pace(Duration::from_millis(10)); // let the gate start
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
    let ir = c.window().idle_rate();
    assert!((0.0..=1.0).contains(&ir));
}

#[test]
fn registry_queries_work_during_execution() {
    let r = rt(2);
    for _ in 0..500 {
        r.spawn(|_| pace(Duration::from_micros(50)));
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
fn a_reset_racing_the_worker_is_never_undone() {
    // One worker runs a chain of tasks, each spawning the next, while
    // this thread resets the counters in a loop. Every per-task count
    // read after a reset is bounded by the bodies started since just
    // before it, plus one: the task that straddles the reset. A reset
    // the worker's own counter write could undo — it loads its total,
    // the reset stores zero, it stores the total plus one back — reads
    // as the whole run so far.
    fn link(ctx: &grain_runtime::TaskContext<'_>, ran: Arc<AtomicU64>, stop: Arc<AtomicBool>) {
        ran.fetch_add(1, Ordering::SeqCst);
        if !stop.load(Ordering::SeqCst) {
            ctx.spawn(move |ctx| link(ctx, ran, stop));
        }
    }
    let r = rt(1);
    let ran = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let (l, s) = (Arc::clone(&ran), Arc::clone(&stop));
    r.spawn(move |ctx| link(ctx, l, s));

    let counts = [
        "count/cumulative",
        "count/cumulative-phases",
        "count/exec-samples",
        "count/spawned",
        "count/converted",
    ];
    let read = |name: &str| {
        let path = format!("/threads{{locality#0/total}}/{name}");
        r.registry().query(&path).unwrap().value as u64
    };
    let over = |since: u64| {
        counts.into_iter().find_map(|name| {
            let n = read(name);
            let bound = ran.load(Ordering::SeqCst) - since + 1;
            (n > bound).then(|| format!("{name} read {n} with {bound} tasks since the reset"))
        })
    };
    let deadline = Instant::now() + Duration::from_millis(300);
    let (mut since, mut undone) = (0, None);
    while undone.is_none() && Instant::now() < deadline {
        since = ran.load(Ordering::SeqCst);
        r.reset_counters();
        undone = over(since);
    }
    // End the chain before asserting: the runtime's drop waits for it.
    stop.store(true, Ordering::SeqCst);
    r.wait_idle();
    assert_eq!(undone.or_else(|| over(since)), None);
}

#[test]
fn spawns_from_external_threads_are_all_counted() {
    let r = Arc::new(rt(2));
    let spawners: Vec<_> = (0..4)
        .map(|i| {
            let r = Arc::clone(&r);
            grain_counters::sync::spawn(format!("spawner-{i}"), move || {
                for _ in 0..10_000 {
                    r.spawn(|_| {});
                }
            })
            .unwrap()
        })
        .collect();
    for spawner in spawners {
        spawner.join().expect("a spawner panicked");
    }
    r.wait_idle();
    let spawned = r
        .registry()
        .query("/threads{locality#0/total}/count/spawned")
        .unwrap();
    assert_eq!(spawned.value as u64, 40_000);
    assert_eq!(r.counters().tasks.sum(), 40_000);
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
                pace(Duration::from_micros(100));
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
    let release = Arc::new(AtomicBool::new(false));
    {
        let release = Arc::clone(&release);
        r.spawn(move |_| {
            while !release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
    }
    pace(Duration::from_millis(10));
    for _ in 0..25 {
        r.spawn(|_| {});
    }
    pace(Duration::from_millis(5));
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
    r.spawn(|_| pace(Duration::from_millis(120)));
    r.wait_idle();
    let c = r.counters();
    let ir = c.window().idle_rate();
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
    let ir = r.counters().window().idle_rate();
    assert!(
        ir < 0.35,
        "saturated run should have low idle-rate, got {ir}"
    );
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
    let per_task = r.counters().window().task_duration_ns();
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
        r.spawn(|_| pace(Duration::from_micros(200)));
    }
    r.set_active_workers(4);
    for _ in 0..2000 {
        r.spawn(|_| pace(Duration::from_micros(50)));
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

/// What a per-worker timeline would sum — phases per worker and each
/// worker's busy time — the `/threads` counters already hold.
#[test]
fn phases_and_busy_time_are_counted_per_worker() {
    let r = rt(2);
    for _ in 0..100 {
        r.spawn(|_| pace(Duration::from_micros(30)));
    }
    r.wait_idle();
    let c = r.counters();
    let phases: Vec<u64> = (0..2).map(|w| c.phases.get(w)).collect();
    assert_eq!(phases.iter().sum::<u64>(), 100, "{phases:?}");
    let busy: Vec<u64> = (0..2).map(|w| c.exec_ns.get(w)).collect();
    assert!(busy.iter().sum::<u64>() > 100 * 25_000, "{busy:?}");
}

/// A future keeps its first four continuations in its own allocation and
/// spills the rest to a list. Give one more than that: dataflow nodes,
/// `on_settled` callbacks and `when_all` joins in turn, and a thread
/// blocked in `wait`. Each runs exactly once, the callbacks and joins
/// (which run on the settling thread) in the order registered, and none
/// is kept alive after the settle.
#[test]
fn dependents_past_the_inline_slots_each_run_once_in_order() {
    let r = rt(1);
    let (promise, src) = channel::<u64>();
    let blocked = {
        let src = src.clone();
        grain_counters::sync::spawn("waiter", move || src.wait()).unwrap()
    };
    let order = Arc::new(Mutex::new(Vec::new()));
    let token = Arc::new(());
    let ran = Arc::new(AtomicUsize::new(0));
    let mut nodes = Vec::new();
    for i in 0..12u64 {
        let (order, token) = (Arc::clone(&order), Arc::clone(&token));
        let record = move || order.lock().push(i);
        match i % 3 {
            0 => {
                let ran = Arc::clone(&ran);
                nodes.push(r.dataflow([&src], move |_, v| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    (*v[0] + i, token)
                }));
            }
            1 => src.on_settled(move |_| {
                let _token = token;
                record()
            }),
            _ => when_all(std::slice::from_ref(&src)).on_settled(move |_| {
                let _token = token;
                record()
            }),
        }
    }
    let token = {
        let weak = Arc::downgrade(&token);
        drop(token);
        weak
    };
    pace(Duration::from_millis(10));
    promise.set(100);
    let inline: Vec<u64> = (0..12).filter(|i| i % 3 != 0).collect();
    assert_eq!(*order.lock(), inline);
    assert_eq!(blocked.join().expect("waiter").map(|v| *v), Ok(100));
    for (k, node) in nodes.iter().enumerate() {
        let value = node.wait_timeout(Duration::from_secs(5)).map(|v| v.0);
        assert_eq!(value, Ok(100 + 3 * k as u64), "node {k}");
    }
    // Dropping the runtime joins its worker: no task it ran is held.
    drop(r);
    assert_eq!(ran.load(Ordering::SeqCst), 4);
    drop(nodes);
    assert!(token.upgrade().is_none(), "a dependent outlived the settle");
}

/// The runtime's `/threads{…}` scopes — the total and one per worker —
/// retire with it: a registry outliving its runtime is empty.
#[test]
fn dropping_a_runtime_empties_its_registry() {
    let r = rt(2);
    let registry = Arc::clone(r.registry());
    r.async_call(|_| 1u8).wait().expect("task runs");
    assert_eq!(registry.len(), 22 + 2 * 5);
    drop(r);
    assert!(registry.is_empty(), "{:?}", registry.paths());
}
