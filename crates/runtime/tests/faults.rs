//! Fault-tolerance behavior, observed through the public API: panic
//! isolation, fault propagation through futures and DAGs, bounded
//! waits, a dependency cycle and dead-worker detection.

use grain_counters::sync::{AtomicBool, Ordering};
use grain_runtime::{
    channel, when_all, Poll, Priority, Runtime, RuntimeConfig, TaskError, TaskGroup,
};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;

fn two_workers() -> Runtime {
    Runtime::new(RuntimeConfig::with_workers(2))
}

#[test]
fn panicking_task_faults_only_its_future() {
    let rt = two_workers();
    let bad = rt.async_call(|_| -> u32 { panic!("boom {}", 42) });
    match bad.wait() {
        Err(TaskError::Panicked { message }) => assert!(message.contains("boom 42")),
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The worker that hosted the panic survives and keeps serving work.
    let ok = rt.async_call(|_| 7u32);
    assert_eq!(*ok.get(), 7);
    rt.wait_idle();
    assert_eq!(rt.counters().faulted.sum(), 1);
    // A faulted task is not a completed task.
    assert_eq!(rt.counters().tasks.sum(), 1);
}

#[test]
fn mid_dag_panic_propagates_a_cause_chain() {
    let rt = two_workers();
    let a = rt.async_call(|_| -> u32 { panic!("stage a failed") });
    let b = rt.dataflow(&[a], |_, v| *v[0] + 1);
    let c = rt.dataflow(&[b], |_, v| *v[0] + 1);
    let err = c.wait().expect_err("fault must reach the DAG tail");
    assert!(err.chain_len() >= 2, "expected a cause chain, got {err}");
    match err.root_cause() {
        TaskError::Panicked { message } => assert!(message.contains("stage a failed")),
        other => panic!("expected Panicked root cause, got {other:?}"),
    }
    rt.wait_idle();
}

/// A node faults the moment its first input does — it does not wait for
/// the sibling that is still pending — and a sibling settling late can
/// neither settle the output a second time nor run the body.
#[test]
fn dataflow_faults_on_the_first_faulted_input_while_a_sibling_is_pending() {
    let rt = two_workers();
    let (bad, bad_input) = channel::<u32>();
    let (late, pending_input) = channel::<u32>();
    let ran = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&ran);
    let out = rt.dataflow(&[pending_input, bad_input], move |_, v| {
        r.store(true, Ordering::SeqCst);
        *v[0] + *v[1]
    });
    assert!(!out.is_ready());
    bad.fail(TaskError::BrokenPromise);
    // Settled inline by `fail`: nothing else has to happen first.
    let err = out.error().expect("the first fault settles the node");
    assert_eq!(err.chain_len(), 1);
    assert_eq!(err.root_cause(), &TaskError::BrokenPromise);
    late.set(1);
    rt.wait_idle();
    assert_eq!(out.error(), Some(err));
    assert!(!ran.load(Ordering::SeqCst), "a faulted node never runs");
    assert_eq!(rt.counters().tasks.sum(), 0);
}

/// One `Dependency` wrap per hop: the n-th node downstream of a fault
/// carries a chain of exactly n.
#[test]
fn every_dependency_hop_wraps_the_fault_exactly_once() {
    let rt = two_workers();
    let (root, mut tail) = channel::<u32>();
    let mut hops = Vec::new();
    for _ in 0..3 {
        tail = rt.dataflow(&[tail], |_, v| *v[0] + 1);
        hops.push(tail.clone());
    }
    root.fail(TaskError::Cancelled);
    for (i, hop) in hops.iter().enumerate() {
        let err = hop.error().expect("faults propagate inline");
        assert_eq!(err.chain_len(), i + 1, "hop {i}: {err}");
        assert_eq!(err.root_cause(), &TaskError::Cancelled);
    }
    // `when_all` is the same node and counts as one hop as well.
    let joined = when_all(&hops[2..]).error().expect("already faulted");
    assert_eq!(joined.chain_len(), 4);
    rt.wait_idle();
}

/// A task node settles its own output: the worker that caught the
/// unwind fails it with the captured message (no promise was dropped on
/// the way), and each node downstream adds its one wrap.
#[test]
fn a_dataflow_body_panic_carries_its_message_one_wrap_per_hop() {
    let rt = two_workers();
    let input = rt.async_call(|_| 20u32);
    let bad = rt.dataflow(&[input], |_, v| -> u32 { panic!("node saw {}", *v[0]) });
    let mut hops = vec![bad.clone()];
    for _ in 0..3 {
        let next = rt.dataflow(&hops[hops.len() - 1..], |_, v| *v[0] + 1);
        hops.push(next);
    }
    for (i, hop) in hops.iter().enumerate() {
        let err = hop.wait().expect_err("downstream of a panic");
        assert_eq!(err.chain_len(), i, "hop {i}: {err}");
        assert_eq!(
            err.root_cause(),
            &TaskError::Panicked {
                message: "node saw 20".into()
            }
        );
    }
    rt.wait_idle();
    assert_eq!(rt.in_flight(), 0);
    assert_eq!(
        rt.counters().faulted.sum(),
        1,
        "only the panicking node ran"
    );
    assert_eq!(rt.counters().tasks.sum(), 1, "and the input before it");
}

/// A task node still queued when its runtime goes away (here: the only
/// worker died first) must fail its output, not strand whoever holds it.
#[test]
fn a_task_node_stranded_at_shutdown_fails_its_future() {
    let rt = Runtime::new(RuntimeConfig::with_workers(1));
    rt.spawn_phased(Priority::Normal, |_| Poll::Suspend); // kills the worker
    let dead = std::panic::catch_unwind(AssertUnwindSafe(|| rt.wait_idle()));
    assert!(dead.is_err(), "the worker survived a bare Suspend");
    let queued = rt.async_call(|_| 1u32);
    let downstream = rt.dataflow(std::slice::from_ref(&queued), |_, v| *v[0] + 1);
    assert!(!queued.is_ready());
    drop(rt);
    assert_eq!(
        queued.wait_timeout(Duration::from_secs(5)),
        Err(TaskError::BrokenPromise)
    );
    let err = downstream.error().expect("faulted inline by its input");
    assert_eq!(
        (err.chain_len(), err.root_cause()),
        (1, &TaskError::BrokenPromise)
    );
}

#[test]
fn runtime_survives_every_task_panicking() {
    let rt = Runtime::new(RuntimeConfig::with_workers(4));
    let futs: Vec<_> = (0..32u32)
        .map(|i| rt.async_call(move |_| -> u32 { panic!("task {i} down") }))
        .collect();
    for f in &futs {
        assert!(f.wait().is_err());
    }
    rt.wait_idle();
    assert_eq!(rt.counters().faulted.sum(), 32);
    assert_eq!(*rt.async_call(|_| 1u8).get(), 1);
}

#[test]
fn when_all_fails_if_any_input_faults() {
    let rt = two_workers();
    let good = rt.async_call(|_| 1u32);
    let bad = rt.async_call(|_| -> u32 { panic!("partial failure") });
    let err = when_all(&[good, bad])
        .wait()
        .expect_err("one faulted input must fault the join");
    assert!(matches!(err, TaskError::Dependency { .. }));
    assert!(matches!(err.root_cause(), TaskError::Panicked { .. }));
    rt.wait_idle();
}

#[test]
fn wait_timeout_reports_elapsed_timeout() {
    let (keep, future) = channel::<u32>();
    let err = future
        .wait_timeout(Duration::from_millis(30))
        .expect_err("nobody fulfils the promise");
    match err {
        TaskError::Timeout { waited } => assert!(waited >= Duration::from_millis(30)),
        other => panic!("expected Timeout, got {other:?}"),
    }
    // Still fulfillable after the bounded wait gave up.
    keep.set(9);
    assert_eq!(*future.get(), 9);
}

#[test]
fn dropping_a_promise_breaks_the_future() {
    let (promise, future) = channel::<u32>();
    drop(promise);
    assert_eq!(future.wait(), Err(TaskError::BrokenPromise));
}

#[test]
fn cancelled_group_faults_skipped_futures_with_cancelled() {
    let rt = Runtime::new(RuntimeConfig::with_workers(1));
    let group = TaskGroup::new();
    let started = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(AtomicBool::new(false));
    let (s, g) = (Arc::clone(&started), Arc::clone(&gate));
    // Pin the only worker so the next task stays queued until we cancel.
    rt.spawn_in(&group, Priority::Normal, move |_| {
        s.store(true, Ordering::SeqCst);
        while !g.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    });
    while !started.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let skipped = rt.async_in(&group, Priority::Normal, |_| 5u32);
    group.cancel();
    gate.store(true, Ordering::SeqCst);
    assert_eq!(skipped.wait(), Err(TaskError::Cancelled));
    rt.wait_idle();
}

/// Run `f` on a thread of its own; fail if it has not returned within
/// `limit`.
fn bounded(limit: Duration, name: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let t = grain_counters::sync::spawn(name, move || {
        f();
        let _ = tx.send(());
    })
    .expect("spawn the test body");
    match rx.recv_timeout(limit) {
        Ok(()) => t.join().expect("test body panicked"),
        Err(_) => panic!("{name}: exceeded {limit:?} — a wait hung on the cycle"),
    }
}

/// Two dataflow nodes, each gated on a future only the other could
/// fulfil, are a cycle that never becomes a task. No wait hangs on it:
/// nothing is in flight, so `wait_idle` returns at once, a timed wait
/// on the cyclic future reports the timeout, and the runtime drops.
#[test]
fn a_dependency_cycle_hangs_no_wait() {
    bounded(Duration::from_secs(10), "dependency cycle", || {
        let rt = two_workers();
        let (pa, fa) = channel::<u32>();
        let (pb, fb) = channel::<u32>();
        let da = rt.dataflow(&[fb], move |_, v| pa.set(*v[0]));
        let db = rt.dataflow(&[fa], move |_, v| pb.set(*v[0]));
        assert_eq!(rt.in_flight(), 0, "a node waiting on its inputs is no task");
        rt.wait_idle();
        let waited = Duration::from_millis(50);
        assert_eq!(da.wait_timeout(waited), Err(TaskError::Timeout { waited }));
        drop(rt);
        drop((da, db));
    });
}

#[test]
fn dead_worker_turns_wait_idle_into_a_loud_failure() {
    let rt = two_workers();
    // Returning Suspend without registering a wake source violates the
    // runtime contract and kills the hosting worker; the suspended task
    // is stranded. The old behavior was to hang in wait_idle forever.
    rt.spawn_phased(Priority::Normal, |_| Poll::Suspend);
    let joined = std::panic::catch_unwind(AssertUnwindSafe(|| rt.wait_idle()));
    let message = match joined {
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
        Ok(()) => panic!("wait_idle returned despite a stranded task"),
    };
    assert!(
        message.contains("would hang"),
        "unexpected panic message: {message:?}"
    );
    // Drop of the runtime must NOT panic (it force-shuts-down instead);
    // reaching the end of this test exercises that.
}
