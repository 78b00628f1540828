//! Behavioral tests for task groups and cooperative cancellation.

use grain_runtime::{channel, Priority, Runtime, TaskError, TaskGroup};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn group_wait_joins_only_its_members() {
    let rt = Runtime::with_workers(2);
    // A long-running background task outside the group.
    let blocker = Arc::new(AtomicUsize::new(0));
    let b = Arc::clone(&blocker);
    rt.spawn(move |_| {
        while b.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    let group = TaskGroup::new();
    let done = Arc::new(AtomicUsize::new(0));
    for _ in 0..50 {
        let d = Arc::clone(&done);
        rt.spawn_in(&group, Priority::Normal, move |_| {
            d.fetch_add(1, Ordering::SeqCst);
        });
    }
    // Joining the group must not require the unrelated blocker to finish.
    assert!(
        group.wait_timeout(Duration::from_secs(5)),
        "group latch must release while an unrelated task still runs"
    );
    assert_eq!(done.load(Ordering::SeqCst), 50);
    assert_eq!(group.completed(), 50);
    assert!(rt.in_flight() >= 1, "the blocker is still in flight");
    blocker.store(1, Ordering::SeqCst);
    rt.wait_idle();
}

#[test]
fn children_inherit_their_parents_group() {
    let rt = Runtime::with_workers(2);
    let group = TaskGroup::new();
    let done = Arc::new(AtomicUsize::new(0));
    let d = Arc::clone(&done);
    rt.spawn_in(&group, Priority::Normal, move |ctx| {
        for _ in 0..10 {
            let d = Arc::clone(&d);
            ctx.spawn(move |ctx2| {
                let d = Arc::clone(&d);
                ctx2.spawn(move |_| {
                    d.fetch_add(1, Ordering::SeqCst);
                });
            });
        }
    });
    assert!(group.wait_timeout(Duration::from_secs(5)));
    assert_eq!(done.load(Ordering::SeqCst), 10);
    // root + 10 children + 10 grandchildren
    assert_eq!(group.spawned(), 21);
    assert_eq!(group.completed(), 21);
}

#[test]
fn cancellation_skips_queued_members() {
    let rt = Runtime::with_workers(1);
    let group = TaskGroup::new();
    let ran = Arc::new(AtomicUsize::new(0));

    // Occupy the lone worker so the grouped tasks stay queued.
    let gate = Arc::new(AtomicUsize::new(0));
    let g = Arc::clone(&gate);
    rt.spawn(move |_| {
        while g.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    std::thread::sleep(Duration::from_millis(10));
    for _ in 0..100 {
        let r = Arc::clone(&ran);
        rt.spawn_in(&group, Priority::Normal, move |_| {
            r.fetch_add(1, Ordering::SeqCst);
        });
    }
    group.cancel();
    gate.store(1, Ordering::SeqCst);
    assert!(group.wait_timeout(Duration::from_secs(5)));
    assert_eq!(
        ran.load(Ordering::SeqCst),
        0,
        "no queued member may run after cancel"
    );
    assert_eq!(group.skipped(), 100);
    rt.wait_idle();
}

#[test]
fn cancellation_releases_dormant_dataflow_nodes() {
    let rt = Runtime::with_workers(2);
    let group = TaskGroup::new();
    let ran = Arc::new(AtomicUsize::new(0));

    // A dataflow node whose dependency never becomes ready while the
    // group lives.
    let (_promise, dep) = grain_runtime::channel::<u64>();
    let r = Arc::clone(&ran);
    let _out = rt.dataflow_in(&group, Priority::Normal, &[dep], move |_, _| {
        r.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(group.in_flight(), 1, "dormant node holds a reservation");
    assert!(
        !group.wait_timeout(Duration::from_millis(20)),
        "group must not be quiescent while the node is dormant"
    );
    group.cancel();
    assert!(
        group.wait_timeout(Duration::from_secs(5)),
        "cancel must release the dormant reservation"
    );
    assert_eq!(ran.load(Ordering::SeqCst), 0);
    assert_eq!(group.skipped(), 1);
}

/// Cancel and readiness race for a dormant node; whichever wins, the
/// reservation is retired exactly once and the group's books close:
/// one member entered, one member left, either skipped or completed.
#[test]
fn cancel_racing_a_settling_input_retires_the_node_exactly_once() {
    let rt = Runtime::with_workers(2);
    for round in 0..500 {
        let group = TaskGroup::new();
        let (promise, external) = channel::<u64>();
        let out = rt.dataflow_in(&group, Priority::Normal, &[external], |_, v| *v[0]);
        assert_eq!(group.in_flight(), 1);
        let start = Arc::new(std::sync::Barrier::new(2));
        let settler = {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                promise.set(round);
            })
        };
        start.wait();
        group.cancel();
        settler.join().expect("settler panicked");
        assert!(group.wait_timeout(Duration::from_secs(5)), "round {round}");
        assert_eq!(group.spawned(), 1);
        assert_eq!(
            group.skipped() + group.completed(),
            1,
            "round {round}: retired twice or never: {group:?}"
        );
        match out.wait_timeout(Duration::from_secs(5)) {
            Ok(v) => assert_eq!((*v, group.completed()), (round, 1)),
            Err(e) => assert_eq!((e, group.skipped()), (TaskError::Cancelled, 1)),
        }
    }
    rt.wait_idle();
}

/// A node cancelled while it waits on a future nobody settles is skipped
/// once; the input settling afterwards finds nothing left to do.
#[test]
fn node_cancelled_while_dormant_ignores_its_input_settling_later() {
    let rt = Runtime::with_workers(1);
    let group = TaskGroup::new();
    let (promise, external) = channel::<u64>();
    let out = rt.dataflow_in(&group, Priority::Normal, &[external], |_, v| *v[0]);
    group.cancel();
    assert_eq!(out.error(), Some(TaskError::Cancelled));
    assert_eq!((group.skipped(), group.in_flight()), (1, 0));
    promise.set(1);
    rt.wait_idle();
    assert_eq!((group.skipped(), group.completed()), (1, 0));
    assert_eq!(rt.counters().tasks.sum(), 0);
    // A node created after the cancel is released on the spot.
    let late = rt.dataflow_in(
        &group,
        Priority::Normal,
        &[] as &[_],
        |_, v: Vec<Arc<u64>>| v.len(),
    );
    assert_eq!(late.error(), Some(TaskError::Cancelled));
    assert_eq!((group.skipped(), group.in_flight()), (2, 0));
}

/// A group that ran grouped dataflow nodes and was never cancelled must
/// not outlive its handles: its nodes hold it, so it may only hold them
/// weakly.
#[test]
fn completed_group_with_dataflow_is_freed() {
    let rt = Runtime::with_workers(2);
    let group = TaskGroup::new();
    let mut f = rt.async_in(&group, Priority::Normal, |_| 0u64);
    for _ in 0..16 {
        f = rt.dataflow_in(&group, Priority::Normal, &[f], |_, v| *v[0] + 1);
    }
    assert_eq!(*f.get(), 16);
    assert!(group.wait_timeout(Duration::from_secs(5)));
    rt.wait_idle();
    let weak = Arc::downgrade(&group);
    drop(group);
    // The worker that retired the last member lets go of the group a
    // moment after the latch opens.
    let deadline = Instant::now() + Duration::from_secs(5);
    while weak.strong_count() != 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(weak.strong_count(), 0, "the completed group is still alive");
}

#[test]
fn running_tasks_observe_cancellation_cooperatively() {
    let rt = Runtime::with_workers(2);
    let group = TaskGroup::new();
    let bailed = Arc::new(AtomicUsize::new(0));
    let b = Arc::clone(&bailed);
    rt.spawn_in(&group, Priority::Normal, move |ctx| {
        // Long-running body polling for cancellation.
        for _ in 0..10_000 {
            if ctx.is_cancelled() {
                b.fetch_add(1, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    std::thread::sleep(Duration::from_millis(10));
    group.cancel();
    assert!(
        group.wait_timeout(Duration::from_secs(5)),
        "polling body must observe the token and return"
    );
    assert_eq!(bailed.load(Ordering::SeqCst), 1);
    // A completed-but-bailed task counts as completed, not skipped.
    assert_eq!(group.completed(), 1);
}

#[test]
fn grouped_dataflow_chain_completes_and_accounts() {
    let rt = Runtime::with_workers(2);
    let group = TaskGroup::new();
    let mut f = rt.async_in(&group, Priority::Normal, |_| 0u64);
    for _ in 0..32 {
        f = rt.dataflow_in(&group, Priority::Normal, &[f], |_, v| *v[0] + 1);
    }
    assert_eq!(*f.get(), 32);
    assert!(group.wait_timeout(Duration::from_secs(5)));
    assert_eq!(group.spawned(), 33);
    assert_eq!(group.completed(), 33);
    assert_eq!(group.skipped(), 0);
    assert!(group.exec_ns() > 0 || group.completed() > 0);
}

#[test]
fn exhausted_budget_skips_queued_members_at_dispatch() {
    let rt = Runtime::with_workers(1);
    let group = TaskGroup::new();
    let ran = Arc::new(AtomicUsize::new(0));

    // Occupy the lone worker so the grouped tasks stay queued.
    let gate = Arc::new(AtomicUsize::new(0));
    let g = Arc::clone(&gate);
    rt.spawn(move |_| {
        while g.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    std::thread::sleep(Duration::from_millis(10));
    for _ in 0..20 {
        let r = Arc::clone(&ran);
        rt.spawn_in(&group, Priority::Normal, move |_| {
            r.fetch_add(1, Ordering::SeqCst);
        });
    }
    // The budget expires while the members are still queued; the group is
    // NOT cancelled — the budget alone must keep the bodies from running.
    group.set_budget_deadline(std::time::Instant::now());
    gate.store(1, Ordering::SeqCst);
    assert!(group.wait_timeout(Duration::from_secs(5)));
    assert_eq!(
        ran.load(Ordering::SeqCst),
        0,
        "no member may run past the budget deadline"
    );
    assert_eq!(group.skipped(), 20);
    assert_eq!(group.budget_skipped(), 20);
    assert!(!group.is_cancelled());
    rt.wait_idle();
}

#[test]
fn budget_skipped_future_faults_with_cancelled() {
    let rt = Runtime::with_workers(1);
    let group = TaskGroup::new();
    let gate = Arc::new(AtomicUsize::new(0));
    let g = Arc::clone(&gate);
    rt.spawn(move |_| {
        while g.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    std::thread::sleep(Duration::from_millis(10));
    let out = rt.async_in(&group, Priority::Normal, |_| 9u32);
    group.set_budget_deadline(std::time::Instant::now());
    gate.store(1, Ordering::SeqCst);
    assert_eq!(out.wait(), Err(grain_runtime::TaskError::Cancelled));
    // The promise settles from inside the skip path, slightly before the
    // group counters are bumped — join the group before reading them.
    assert!(group.wait_timeout(Duration::from_secs(5)));
    assert_eq!(group.budget_skipped(), 1);
    rt.wait_idle();
}

/// A grouped dataflow task whose inputs are ready and which is queued
/// when the group is cancelled, or runs out of budget, is skipped at
/// dispatch like any member: the worker fails its output `Cancelled`,
/// what depends on it inherits that, and every count comes back to zero.
#[test]
fn a_queued_dataflow_task_is_skipped_with_balanced_books() {
    for over_budget in [false, true] {
        let rt = Runtime::with_workers(1);
        let group = TaskGroup::new();
        let gate = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        // Occupy the lone worker so the node's task stays queued.
        rt.spawn(move |_| {
            while g.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let input = grain_runtime::SharedFuture::ready(1u32);
        let queued = rt.dataflow_in(&group, Priority::Normal, &[input], move |_, v| {
            r.fetch_add(1, Ordering::SeqCst);
            *v[0]
        });
        let dep = std::slice::from_ref(&queued);
        let after = rt.dataflow_in(&group, Priority::Normal, dep, |_, v| *v[0]);
        assert_eq!(group.in_flight(), 2, "one queued, one dormant behind it");
        if over_budget {
            group.set_budget_deadline(std::time::Instant::now());
        } else {
            group.cancel();
        }
        gate.store(1, Ordering::SeqCst);

        assert_eq!(queued.wait(), Err(grain_runtime::TaskError::Cancelled));
        assert!(group.wait_timeout(Duration::from_secs(5)));
        rt.wait_idle();
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(
            after.error().map(|e| e.chain_len()),
            Some(usize::from(over_budget))
        );
        assert_eq!((rt.in_flight(), group.in_flight()), (0, 0));
        assert_eq!(group.spawned(), 2);
        assert_eq!(group.budget_skipped(), u64::from(over_budget));
        // Cancelling releases the dormant dependent as a skip of its own;
        // under a spent budget it inherits its input's fault instead.
        assert_eq!(group.skipped(), 2 - u64::from(over_budget));
        assert_eq!(group.faulted(), u64::from(over_budget));
    }
}

#[test]
fn a_grouped_node_that_panics_is_its_groups_first_fault() {
    let rt = Runtime::with_workers(2);
    let group = TaskGroup::new();
    let input = rt.async_in(&group, Priority::Normal, |_| 3u32);
    let bad = rt.dataflow_in(&group, Priority::Normal, &[input], |_, v| -> u32 {
        panic!("member {} failed", *v[0])
    });
    let panicked = grain_runtime::TaskError::Panicked {
        message: "member 3 failed".into(),
    };
    assert_eq!(bad.wait(), Err(panicked.clone()));
    assert!(group.wait_timeout(Duration::from_secs(5)));
    rt.wait_idle();
    assert_eq!(group.first_fault(), Some(panicked));
    assert_eq!((group.completed(), group.faulted()), (1, 1));
    assert_eq!((rt.in_flight(), group.in_flight()), (0, 0));
}

#[test]
fn remaining_budget_is_visible_to_running_bodies() {
    let rt = Runtime::with_workers(1);
    let group = TaskGroup::new();
    group.set_budget_deadline(std::time::Instant::now() + Duration::from_secs(60));
    let seen = rt.async_in(&group, Priority::Normal, |ctx| ctx.remaining_budget());
    let left = (*seen.get()).expect("grouped task sees its group's budget");
    assert!(left > Duration::from_secs(30), "left = {left:?}");
    // Ungrouped tasks have no ambient budget.
    let none = rt.async_call(|ctx| ctx.remaining_budget());
    assert_eq!(*none.get(), None);
    rt.wait_idle();
}

#[test]
fn cancel_token_outlives_context() {
    let rt = Runtime::with_workers(1);
    let group = TaskGroup::new();
    let (tx, rx) = std::sync::mpsc::channel();
    rt.spawn_in(&group, Priority::High, move |ctx| {
        tx.send(ctx.cancel_token().expect("grouped task has a token"))
            .unwrap();
    });
    let token = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(!token.is_cancelled());
    group.cancel();
    assert!(token.is_cancelled(), "token clones observe group cancel");
    rt.wait_idle();
}
