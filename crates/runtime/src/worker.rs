//! The worker loop: dispatch, timing, starvation accounting, parking.
//!
//! Timing follows the paper's counter semantics (§II-A):
//!
//! * `t_exec` — the closure time of each phase, accumulated into
//!   `Σt_exec` (`/threads/time/cumulative-exec`);
//! * `t_func` — "the total time to complete each HPX-thread": measured
//!   from the end of the previous dispatch (i.e. including the search
//!   for work, conversion, dequeue, state transitions) to the end of the
//!   current phase. Starvation while work exists *somewhere* is flushed
//!   into `Σt_func` before a worker parks, so coarse-grained runs show
//!   the rising idle-rate of Fig. 4/5's right-hand side. Time spent
//!   while the whole runtime is quiescent (no task in flight) is *not*
//!   charged — otherwise the counters would drift between benchmark runs.
//!
//! The worker reads the clock exactly twice per executed phase: once
//! immediately before the body and once immediately after it. The second
//! read ends `t_exec` *and* is the new `Σt_func` mark, so both sums are
//! exact and a worker's `Σt_exec` can never exceed its `Σt_func`. The
//! park, quiescent and throttle paths take their own reads.
//!
//! Every phase runs under `catch_unwind`: a panicking body terminates
//! only its task (→ `Faulted`, promise settled with
//! [`TaskError::Panicked`], group notified), never the worker. The
//! worker settles a task node's output itself on both exits that run no
//! closure to the end — the panic and the cancellation skip. The one
//! deliberate exception is the `Poll::Suspend`-without-registration
//! programming error below, which stays worker-fatal — the dead-worker
//! detection in [`crate::Runtime`] exists to surface exactly that class
//! of bug loudly instead of hanging.
//!
//! A worker never sleeps, stands down or exits with a task in its *next*
//! slot ([`crate::scheduler::QueueSet::offer_next`]), which no other
//! worker can see: on each of those paths it first moves the task to its
//! pending queue and wakes the pool.

#![deny(clippy::unwrap_used)]

use crate::fault::{self, TaskError};
use crate::runtime::{Inner, Resumer, TaskContext};
use crate::scheduler::Provenance;
use crate::task::{Poll, Task, TaskState};
use crate::trace::TraceEventKind;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub(crate) fn worker_loop(inner: Arc<Inner>, w: usize) {
    inner.bind_worker(w);
    let counters = &inner.counters;
    let mut mark = Instant::now();
    let mut failed_rounds: u32 = 0;
    // What the last act of a phase hands off; emptied after every phase.
    let mut released = Vec::new();

    loop {
        // Eventcount ticket, taken before any probe of this iteration:
        // any wake() fired after this point (spawn, resume, throttle
        // change, shutdown) makes a later park() of this iteration
        // return immediately instead of sleeping through the event.
        let ticket = inner.park_ticket();
        if w >= inner.active_limit.load(Ordering::SeqCst) {
            inner.publish_next(w);
            if inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Throttled: park without taking work; throttled time is
            // deliberate and never charged as starvation.
            inner.park_throttled(ticket);
            mark = Instant::now();
            failed_rounds = 0;
            continue;
        }
        match inner.scheduler.find_work(w, counters) {
            Some((mut task, prov)) => {
                failed_rounds = 0;
                if prov == Provenance::HighPriority {
                    // The search stopped short of the next slot: what is
                    // in it must not sit unseen behind this body.
                    inner.publish_next(w);
                }
                let skip = task.group.as_ref().and_then(|g| {
                    if g.is_cancelled() {
                        Some((std::sync::Arc::clone(g), false))
                    } else if g.budget_exhausted() {
                        // Deadline budget propagation: the job this task
                        // belongs to has already spent its deadline, so
                        // running the body would be work nobody collects.
                        Some((std::sync::Arc::clone(g), true))
                    } else {
                        None
                    }
                });
                if let Some((group, over_budget)) = skip {
                    // Cooperative cancellation: the body never runs. The
                    // task still terminates (legally) so in-flight counts
                    // — runtime-wide and group — stay balanced. A node's
                    // output, or a promise the frame holds, faults with
                    // `Cancelled` instead of `BrokenPromise`.
                    task.transition(TaskState::Active);
                    task.transition(TaskState::Terminated);
                    task.body.abandon(TaskError::Cancelled);
                    inner.task_done();
                    if over_budget {
                        group.exit_over_budget();
                    } else {
                        group.exit_skipped();
                    }
                    // Skipping is part of the search-to-search interval,
                    // charged to Σt_func by the next successful dispatch
                    // via `mark`.
                    continue;
                }
                if inner.tracer.enabled() {
                    if let Some(victim) = steal_victim(&prov) {
                        inner
                            .tracer
                            .record(w, task.id, TraceEventKind::Steal { from: victim });
                    }
                    inner.tracer.record(w, task.id, TraceEventKind::PhaseStart);
                }
                task.transition(TaskState::Active);
                let mut ctx = TaskContext {
                    inner: &inner,
                    worker: w,
                    task_id: task.id,
                    phase: task.phases,
                    suspend_registration: None,
                    group: task.group.clone(),
                    released: &mut released,
                };

                #[cfg(feature = "fault-inject")]
                let injected = inner
                    .config
                    .fault_plan
                    .as_ref()
                    .map(|p| p.decide(task.id.0, task.phases))
                    .unwrap_or(grain_counters::FaultAction::None);
                #[cfg(feature = "fault-inject")]
                match injected {
                    // The injected sleep sits between `mark` and the
                    // body: it is charged to Σt_func, not Σt_exec.
                    grain_counters::FaultAction::Delay(d) => std::thread::sleep(d),
                    grain_counters::FaultAction::SpuriousWake => inner.wake(),
                    _ => {}
                }

                let exec_start = Instant::now();
                // Isolate the phase: a panicking body must terminate only
                // this task. The scope arms the panic hook so the message
                // is captured (and not printed) and reachable by promise
                // drop glue running inside the unwind.
                let result = {
                    let _scope = fault::PhaseScope::enter();
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        #[cfg(feature = "fault-inject")]
                        if injected == grain_counters::FaultAction::Panic {
                            panic!("injected fault: task panic");
                        }
                        task.body.run(&mut ctx)
                    }))
                };
                let now = Instant::now();
                let exec_ns = now.duration_since(exec_start).as_nanos() as u64;
                if inner.tracer.enabled() {
                    inner.tracer.record(w, task.id, TraceEventKind::PhaseEnd);
                }
                let registration = ctx.suspend_registration.take();

                task.phases += 1;
                task.exec_ns += exec_ns;
                counters.phases.incr(w);
                counters.exec_ns.add(w, exec_ns);
                counters.exec_histogram.record(exec_ns);
                if let Some(g) = &task.group {
                    g.add_exec_ns(exec_ns);
                }

                counters
                    .func_ns
                    .add(w, now.duration_since(mark).as_nanos() as u64);
                mark = now;
                if !released.is_empty() {
                    inner.place_released(w, &mut released);
                }

                match result {
                    Ok(Poll::Complete) => {
                        fault::take_captured_panic();
                        task.transition(TaskState::Terminated);
                        counters.tasks.incr(w);
                        let Task { body, group, .. } = task;
                        drop(body); // free the frame before signalling idle
                        inner.task_done();
                        if let Some(g) = group {
                            g.exit_completed();
                        }
                    }
                    Ok(Poll::Yield) => {
                        fault::take_captured_panic();
                        task.transition(TaskState::Pending);
                        inner.scheduler.queues.push_pending(w, task);
                        inner.wake();
                    }
                    Ok(Poll::Suspend) => {
                        fault::take_captured_panic();
                        task.transition(TaskState::Suspended);
                        let registration = registration.expect(
                            "task returned Poll::Suspend without calling \
                             TaskContext::suspend_until first",
                        );
                        registration(Resumer {
                            inner: Arc::clone(&inner),
                            task: Some(task),
                        });
                    }
                    Err(payload) => {
                        // The panic is contained: this task faults, the
                        // worker carries on. A promise the closure owned
                        // settled during the unwind (with the captured
                        // message); a node's output, and a promise a
                        // phased body still holds, fault here.
                        let message = fault::take_captured_panic()
                            .unwrap_or_else(|| fault::payload_message(payload.as_ref()));
                        drop(payload);
                        let error = TaskError::Panicked { message };
                        task.transition(TaskState::Faulted);
                        counters.faulted.incr(w);
                        let Task { body, group, .. } = task;
                        body.abandon(error.clone());
                        inner.task_done();
                        if let Some(g) = group {
                            g.exit_faulted(error);
                        }
                    }
                }
            }
            None => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                failed_rounds += 1;
                if failed_rounds <= inner.config.spin_rounds {
                    std::hint::spin_loop();
                    continue;
                }
                failed_rounds = 0;
                if inner.in_flight.load(Ordering::SeqCst) == 0 {
                    // Quiescent runtime: discard the elapsed window so the
                    // counters don't drift while nothing is happening.
                    mark = Instant::now();
                }
                // An empty search took whatever was in the next slot, and
                // only a phase fills it; this is the rule, kept anyway.
                inner.publish_next(w);
                // The ticket predates this iteration's (empty) search: a
                // spawn that raced it bumped the generation and voids the
                // park — the lost-wakeup window is closed.
                inner.park(ticket);
                let now = Instant::now();
                if inner.in_flight.load(Ordering::SeqCst) > 0 {
                    // Genuine starvation: work exists but this worker can't
                    // get any. Charge the search + nap time to Σt_func (the
                    // paper: at coarse grain "cores have no work to do …
                    // but the thread scheduler continues to look for
                    // work").
                    counters
                        .func_ns
                        .add(w, now.duration_since(mark).as_nanos() as u64);
                }
                mark = now;
            }
        }
    }
    inner.publish_next(w);
    inner.unbind_worker();
}

fn steal_victim(prov: &Provenance) -> Option<u32> {
    use Provenance as P;
    match prov {
        P::NumaStaged(p) | P::NumaPending(p) | P::RemoteStaged(p) | P::RemotePending(p) => {
            Some(*p as u32)
        }
        _ => None,
    }
}
