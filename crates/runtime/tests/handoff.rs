//! The local hand-off: a task that finishes leaves the first dependent
//! its completion made ready in its own worker's *next* slot, converted,
//! and any further ones on that worker's pending queue. Observed through
//! the public API and the paper's queue counters — and, where the point
//! is that a task must *not* be hidden in the slot, through rendezvous
//! that only a second worker can complete.

#[path = "support/pace.rs"]
mod pace;

use grain_counters::sync::{AtomicBool, AtomicU64, Ordering};
use grain_counters::Window;
use grain_runtime::{channel, Poll, Priority, Runtime, SharedFuture};
use pace::pace;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Long enough for a loaded host, short enough to fail instead of hang.
const PATIENCE: Duration = Duration::from_secs(20);

/// Spin (politely) until `flag` is set; `false` if `PATIENCE` ran out.
fn await_flag(flag: &AtomicBool) -> bool {
    let deadline = Instant::now() + PATIENCE;
    while !flag.load(Ordering::SeqCst) {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// A chain of `len` one-input nodes behind `root`, each adding one.
fn chain(rt: &Runtime, root: SharedFuture<u64>, len: u64) -> SharedFuture<u64> {
    (0..len).fold(root, |tail, _| rt.dataflow(&[tail], |_, v| *v[0] + 1))
}

/// One worker runs a chain whose first and last node each hold it inside
/// their body while the test reads the counters, so the difference is
/// exactly the dispatches of a chain in full flight — no idle searching.
fn chain_in_flight(len: u64) -> Window {
    let rt = Runtime::with_workers(1);
    let (gate, root) = channel::<u64>();
    let started = [AtomicBool::new(false), AtomicBool::new(false)];
    let resume = [AtomicBool::new(false), AtomicBool::new(false)];
    let flags = Arc::new((started, resume));
    let hold = |at: usize| {
        let flags = Arc::clone(&flags);
        move |v: u64| {
            flags.0[at].store(true, Ordering::SeqCst);
            assert!(await_flag(&flags.1[at]), "the test never let node {at} go");
            v + 1
        }
    };
    let first = hold(0);
    let head = rt.dataflow(&[root], move |_, v| first(*v[0]));
    let body = chain(&rt, head, len - 2);
    let last = hold(1);
    let tail = rt.dataflow(&[body], move |_, v| last(*v[0]));

    gate.set(0);
    assert!(await_flag(&flags.0[0]), "the chain never started");
    let before = rt.counters().window();
    flags.1[0].store(true, Ordering::SeqCst);
    assert!(await_flag(&flags.0[1]), "the chain never reached its end");
    let after = rt.counters().window();
    flags.1[1].store(true, Ordering::SeqCst);

    assert_eq!(*tail.get(), len);
    rt.wait_idle();
    after.since(&before)
}

#[test]
fn a_chain_on_one_worker_is_handed_off_not_staged() {
    let len = 10_000;
    let d = chain_in_flight(len);
    // Between the two reads every node but the last finished, and every
    // node but the first was converted — by the settle that readied it.
    assert_eq!(d.tasks, len - 1);
    assert_eq!(d.converted, d.tasks, "one conversion per task: {d:?}");
    // Each dispatch is a miss on the (empty) high-priority pending queue
    // and a hit in the next slot or, once in `NEXT_SLOT_STREAK`, on the
    // own pending queue. It was three misses in four accesses.
    assert!(
        d.pending_misses * 2 <= d.pending_accesses,
        "pending miss ratio above one half: {d:?}"
    );
    // Nothing released at completion is ever found staged. The staged
    // probes left are one per dispatch of the high-priority queue, which
    // comes before step 1 of the search, and one per streak of the own
    // queue; it was three per dispatch.
    assert_eq!(d.staged_accesses, d.staged_misses, "a staged hit: {d:?}");
    assert!(
        d.staged_accesses <= d.tasks + d.tasks / 16,
        "staged probes: {d:?}"
    );
}

/// Two bodies that each wait for the other: both finish only if they run
/// at the same time, on two workers.
fn rendezvous() -> impl Fn(usize) -> bool + Clone + Send + 'static {
    let here = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
    move |me: usize| {
        here[me].store(true, Ordering::SeqCst);
        await_flag(&here[1 - me])
    }
}

#[test]
fn the_second_dependent_of_one_completion_is_published_and_stolen() {
    let rt = Runtime::with_workers(2);
    let built = Arc::new(AtomicBool::new(false));
    let b = Arc::clone(&built);
    // Holds its worker until both dependents hang on its output, so that
    // one settle — the last act of this task — readies the two of them.
    let parent = rt.async_call(move |_| assert!(await_flag(&b)));
    let meet = rendezvous();
    let (m0, m1) = (meet.clone(), meet);
    let left = rt.dataflow(std::slice::from_ref(&parent), move |_, _| m0(0));
    let right = rt.dataflow(&[parent], move |_, _| m1(1));
    built.store(true, Ordering::SeqCst);
    // The first went to the finishing worker's slot and runs there; it
    // waits for the second, which only the other worker can run.
    assert!(*left.get(), "the second dependent stayed hidden");
    assert!(*right.get());
    rt.wait_idle();
    assert!(rt.counters().stolen.sum() >= 1, "found on a peer's queue");
    assert_eq!(rt.in_flight(), 0);
}

/// A finishing task hands its unit of the in-flight count to the first
/// dependent its settle readied, and the others are counted in before
/// they are queued: on one worker, with three dependents readied at
/// once, the count still reads two while the second of them runs.
#[test]
fn three_dependents_readied_at_once_stay_in_flight_until_all_ran() {
    let rt = Runtime::with_workers(1);
    let (gate, root) = channel::<u64>();
    let parent = rt.dataflow(&[root], |_, v| *v[0]);
    let started = Arc::new(AtomicU64::new(0));
    let (held, go) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let dependents: Vec<_> = (0..3)
        .map(|i| {
            let (started, held, go) = (Arc::clone(&started), Arc::clone(&held), Arc::clone(&go));
            rt.dataflow(std::slice::from_ref(&parent), move |_, v| {
                // The second to run holds the only worker: the first has
                // finished by then, the third is queued.
                if started.fetch_add(1, Ordering::SeqCst) == 1 {
                    held.store(true, Ordering::SeqCst);
                    assert!(await_flag(&go), "the test never let it go");
                }
                *v[0] + i
            })
        })
        .collect();
    gate.set(10);
    assert!(await_flag(&held), "the second dependent never ran");
    assert_eq!(
        rt.in_flight(),
        2,
        "the running dependent and the queued one"
    );
    go.store(true, Ordering::SeqCst);
    let values: Vec<u64> = dependents.iter().map(|d| *d.get()).collect();
    assert_eq!(values, [10, 11, 12]);
    rt.wait_idle();
    assert_eq!(rt.in_flight(), 0);
    assert_eq!(rt.counters().tasks.sum(), 4);
    // Readied by the parent's settle on the worker: converted there, not
    // staged.
    assert_eq!(rt.counters().converted.sum(), 4);
}

#[test]
fn a_settle_in_the_middle_of_a_body_does_not_use_the_slot() {
    let rt = Runtime::with_workers(2);
    let (promise, early) = channel::<u64>();
    let meet = rendezvous();
    let (m0, m1) = (meet.clone(), meet);
    let dependent = rt.dataflow(&[early], move |_, v| m1(1) && *v[0] == 7);
    // Readies `dependent` and then waits for it inside the same body: in
    // this worker's slot it would sit unseen until the body was over.
    let producer = rt.async_call(move |_| {
        promise.set(7);
        m0(0)
    });
    assert!(*producer.get(), "the dependent was hidden behind the body");
    assert!(*dependent.get());
    rt.wait_idle();
    assert_eq!(rt.in_flight(), 0);
}

#[test]
fn throttling_the_worker_that_holds_a_slot_loses_nothing() {
    let workers = 2;
    let rt = Runtime::with_workers(workers);
    let len = 200_000;
    let done = Arc::new(AtomicU64::new(0));
    let (gate, root) = channel::<u64>();
    let tail = (0..len).fold(root, |tail, _| {
        let done = Arc::clone(&done);
        rt.dataflow(&[tail], move |_, v| {
            done.fetch_add(1, Ordering::Relaxed);
            *v[0] + 1
        })
    });
    gate.set(0);
    // Stand the pool down and up again while the chain runs. 0 clamps to
    // the one worker that always stays; the other, whenever the chain is
    // on it at the time, has to give up its slot before it parks.
    while done.load(Ordering::Relaxed) < len * 3 / 4 {
        rt.set_active_workers(0);
        pace(Duration::from_micros(200));
        rt.set_active_workers(1);
        pace(Duration::from_micros(200));
        rt.set_active_workers(workers);
        pace(Duration::from_micros(200));
    }
    assert_eq!(tail.wait_timeout(PATIENCE).map(|v| *v), Ok(len));
    rt.wait_idle();
    assert_eq!(rt.in_flight(), 0);
    assert_eq!(rt.counters().tasks.sum(), len);
}

/// The value a probed node passes on, and what its probe read.
type Probed = SharedFuture<(u64, u64)>;

/// A chain of `len` nodes behind `gate` whose first and last node report
/// what `probe` reads when they run.
fn probed_chain(
    rt: &Runtime,
    gate: SharedFuture<u64>,
    len: u64,
    probe: impl Fn() -> u64 + Clone + Send + 'static,
) -> (Probed, Probed) {
    let first = probe.clone();
    let head = rt.dataflow(&[gate], move |_, v| (*v[0] + 1, first()));
    let body = rt.dataflow(std::slice::from_ref(&head), |_, v| v[0].0 + 1);
    let body = chain(rt, body, len - 3);
    let tail = rt.dataflow(&[body], move |_, v| (*v[0] + 1, probe()));
    (head, tail)
}

#[test]
fn a_yielding_task_makes_progress_beside_a_long_chain() {
    let rt = Runtime::with_workers(1);
    let len = 100_000;
    let phases = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let (gate, root) = channel::<u64>();
    let p = Arc::clone(&phases);
    let (head, tail) = probed_chain(&rt, root, len, move || p.load(Ordering::SeqCst));

    // Suspended until the chain is under way (a task that yields for
    // ever keeps a one-worker runtime from ever looking at its staged
    // queue, where the chain's first node arrives), then yielding.
    let (p, s, started) = (Arc::clone(&phases), Arc::clone(&stop), head.clone());
    rt.spawn_phased(Priority::Normal, move |ctx| {
        if !started.is_ready() {
            ctx.suspend_until(&started);
            return Poll::Suspend;
        }
        p.fetch_add(1, Ordering::SeqCst);
        match s.load(Ordering::SeqCst) {
            true => Poll::Complete,
            false => Poll::Yield,
        }
    });
    gate.set(0);

    let (value, at_end) = *tail.get();
    stop.store(true, Ordering::SeqCst);
    rt.wait_idle();
    assert_eq!(value, len);
    // Every node readies the next, so the slot alone would run the whole
    // chain before the yielded task's next phase. The streak bound sends
    // one node in `NEXT_SLOT_STREAK` round by the pending queue, behind
    // the yielder: a phase each time.
    let during = at_end - head.get().1;
    assert!(
        during >= len / 100,
        "{during} phases of the yielding task during a {len}-node chain"
    );
}

#[test]
fn a_fresh_spawn_gets_its_turn_beside_a_long_chain() {
    let rt = Runtime::with_workers(1);
    let len = 100_000;
    let spawned = Arc::new(AtomicBool::new(false));
    let ran = Arc::new(AtomicBool::new(false));
    let (gate, root) = channel::<u64>();
    let (s, r) = (Arc::clone(&spawned), Arc::clone(&ran));
    // The first node holds the worker until the spawn below is staged;
    // the last one reports whether that task has run by then.
    let (_, tail) = probed_chain(&rt, root, len, move || {
        assert!(await_flag(&s), "the test never spawned");
        u64::from(r.load(Ordering::SeqCst))
    });
    gate.set(0);
    let r = Arc::clone(&ran);
    rt.spawn(move |_| r.store(true, Ordering::SeqCst));
    spawned.store(true, Ordering::SeqCst);

    // Staged on the only worker's queue, which the search reaches only
    // past the slot and the pending queue: without the streak bound the
    // chain, never leaving the slot, would have kept it waiting.
    let (value, ran_by_the_end) = *tail.get();
    rt.wait_idle();
    assert_eq!(value, len);
    assert_eq!(ran_by_the_end, 1, "the spawn waited for the whole chain");
}
